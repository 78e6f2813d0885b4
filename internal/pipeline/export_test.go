package pipeline

import "github.com/oraql/go-oraql/internal/ir"

// LoweredModules exposes the pristine modules a Lowered holds.
func LoweredModules(l *Lowered) (host, device *ir.Module) { return l.host, l.device }
