// Package sim is a nilguard fixture standing in for the engine: every
// Emit on an obs.Tracer value must be dominated by a nil check.
package sim

import "compaction/internal/obs"

type engine struct {
	tracer obs.Tracer
	rounds int
}

// Unguarded emission: the production fast path is a nil tracer, so
// this either panics or forces a no-op tracer on every caller.
func (e *engine) bad() {
	e.tracer.Emit(obs.Event{Kind: 1}) // want `e\.tracer\.Emit is not behind a nil guard`
}

// A guard on the wrong value does not count.
func (e *engine) wrongGuard(other obs.Tracer) {
	if other != nil {
		e.tracer.Emit(obs.Event{Kind: 1}) // want `e\.tracer\.Emit is not behind a nil guard`
	}
}

// The else branch of a != guard is the nil side.
func (e *engine) elseOfNeq() {
	if e.tracer != nil {
		e.rounds++
	} else {
		e.tracer.Emit(obs.Event{Kind: 1}) // want `e\.tracer\.Emit is not behind a nil guard`
	}
}

// Direct if-guard, the engine's own idiom.
func (e *engine) guarded() {
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Kind: 1})
	}
}

// Compound condition still guards.
func (e *engine) compound() {
	if e.rounds > 0 && e.tracer != nil {
		e.tracer.Emit(obs.Event{Kind: 2})
	}
}

// Init-statement guard, check.Run's idiom.
func (e *engine) initStmt(extra obs.Tracer) {
	if t := pick(e.tracer, extra); t != nil {
		t.Emit(obs.Event{Kind: 3})
	}
}

// Early-return guard.
func (e *engine) earlyReturn() {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{Kind: 4})
}

// Else branch of an == nil check is the non-nil side.
func (e *engine) eqElse() {
	if e.tracer == nil {
		e.rounds++
	} else {
		e.tracer.Emit(obs.Event{Kind: 5})
	}
}

// The escape hatch waives a reviewed site.
func (e *engine) waived() {
	e.tracer.Emit(obs.Event{Kind: 6}) //compactlint:allow nilguard fixture demonstrates the escape hatch
}

func pick(a, b obs.Tracer) obs.Tracer {
	if a != nil {
		return a
	}
	return b
}

// HeapHook mirrors the real engine's heap-observation callback; the
// analyzer matches it by package-path suffix and name, so direct
// calls of values of this type are emission sites too.
type HeapHook func(round int, occ int)

type hooked struct {
	hook HeapHook
}

// Unguarded hook call: the production default is a nil hook.
func (h *hooked) bad(round int) {
	h.hook(round, 0) // want `h\.hook is called without a nil guard`
}

// A guard on a different value does not count.
func (h *hooked) wrongGuard(other HeapHook) {
	if other != nil {
		h.hook(1, 0) // want `h\.hook is called without a nil guard`
	}
}

// The engine's own idiom: nil check and sampling condition in one &&.
func (h *hooked) guarded(round, every int) {
	if h.hook != nil && (every <= 1 || (round+1)%every == 0) {
		h.hook(round, 0)
	}
}

// Early-return guard.
func (h *hooked) earlyReturn(round int) {
	if h.hook == nil {
		return
	}
	h.hook(round, 0)
}

// A conversion to the hook type is not a call of a hook value.
func hookOf(f func(int, int)) HeapHook {
	return HeapHook(f)
}
