package pipeline

import (
	"errors"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/minic"
)

// Lowered is a frontend result shared by the compilations of one
// source (Config.Lowered). The first compilation that needs the
// frontend lowers the source, under a sync.Once, so concurrent
// compilations wait for one lowering instead of each running their
// own; every compilation then optimizes a private ir.Module.Clone of
// the lowered modules, which stay pristine. A compilation answered by
// the translation-unit cache never asks, so a campaign whose
// compilations all hit the cache never runs the frontend.
//
// The zero value is ready to use. A Lowered belongs to the Source,
// SourceFile and Frontend options of the compilation that first used
// it; a compilation of anything else fails instead of reusing it.
type Lowered struct {
	once         sync.Once
	src, srcName string
	opts         minic.Options
	host, device *ir.Module
	err          error
}

// errLoweredMismatch reports a Lowered used with a second source.
var errLoweredMismatch = errors.New("pipeline: Config.Lowered holds another source's frontend result")

// modules returns private copies of the host and device modules of
// cfg's source, lowering it on the first call.
func (l *Lowered) modules(srcName string, cfg Config) (host, device *ir.Module, err error) {
	l.once.Do(func() {
		l.src, l.srcName, l.opts = cfg.Source, srcName, cfg.Frontend
		l.host, l.device, l.err = minic.Compile(srcName, cfg.Source, cfg.Frontend)
	})
	switch {
	case cfg.Source != l.src || srcName != l.srcName || cfg.Frontend != l.opts:
		return nil, nil, errLoweredMismatch
	case l.err != nil:
		return nil, nil, l.err
	}
	// Host and device share the globals both sides access, so they are
	// cloned as one graph.
	ms := ir.CloneModules(l.host, l.device)
	return ms[0], ms[1], nil
}
