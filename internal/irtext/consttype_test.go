package irtext_test

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irtext"
)

// TestConstTypeRoundTrip pins the constant-typing contract of the
// textual form: in positions without an explicit type (vsplat, select,
// call arguments) the token itself carries the type — "3" is an i64,
// "3.0" a double. Before this was enforced, an integer vector splat
// printed as "vsplat 3" and re-parsed as a double splat, so modules
// re-materialized from text (the disk cache's TU layer) silently
// computed different results than the modules they were saved from.
func TestConstTypeRoundTrip(t *testing.T) {
	src := `; module m target=cpu

define double @main() {
entry:
  %vi = vsplat 3
  %vf = vsplat 2.5
  %si = vreduce %vi
  %sf = vreduce %vf
  %c = icmp gt %si, 0
  %sel = select %c, 1.5, 2.5
  %r = fadd %sf, %sel
  ret %r
}
`
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]*ir.Instr{}
	for _, b := range m.Funcs[0].Blocks {
		for _, in := range b.Instrs {
			vals[in.Name] = in
		}
	}
	wantTy := map[string]*ir.Type{
		"vi": ir.V4I64, "vf": ir.V4F64, "si": ir.I64, "sf": ir.F64, "sel": ir.F64,
	}
	for name, ty := range wantTy {
		in := vals[name]
		if in == nil {
			t.Fatalf("missing %%%s", name)
		}
		if in.Ty != ty {
			t.Errorf("%%%s: type %s, want %s", name, in.Ty, ty)
		}
	}
	if c, ok := vals["vi"].Operands[0].(*ir.Const); !ok || c.Ty != ir.I64 || c.I != 3 {
		t.Errorf("vsplat 3 operand: %#v, want i64 3", vals["vi"].Operands[0])
	}
	if c, ok := vals["sel"].Operands[1].(*ir.Const); !ok || c.Ty != ir.F64 || c.F != 1.5 {
		t.Errorf("select float operand: %#v, want double 1.5", vals["sel"].Operands[1])
	}

	// print→parse→print fixpoint, and the printed text keeps the
	// distinguishing markers.
	text := m.String()
	for _, want := range []string{"vsplat 3\n", "vsplat 2.5"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed text lost the constant type marker %q:\n%s", want, text)
		}
	}
	m2, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if m2.String() != text {
		t.Errorf("print->parse->print not a fixpoint")
	}
}

// TestFormatF64 pins the float rendering: always re-parseable as a
// float (never mistakable for an integer token), always exact.
func TestFormatF64(t *testing.T) {
	cases := map[float64]string{
		3:       "3.0",
		-2:      "-2.0",
		2.5:     "2.5",
		1e21:    "1e+21",
		0:       "0.0",
		0.1:     "0.1",
		1 << 60: "1.152921504606847e+18",
	}
	for f, want := range cases {
		if got := ir.FormatF64(f); got != want {
			t.Errorf("FormatF64(%v) = %q, want %q", f, got, want)
		}
	}
}
