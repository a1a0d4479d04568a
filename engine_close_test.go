package cage

import (
	"context"
	"errors"
	"testing"
	"time"

	"cage/internal/engine"
)

// TestEngineCloseDuringCall closes the engine while a checkout is in
// flight, through both entry points. The checkin goes back to the pool
// the instance was spawned for, now closed: the call still returns, and
// its instance is closed — live count back to 0, sandbox tag back in the
// budget — when it is checked in.
func TestEngineCloseDuringCall(t *testing.T) {
	const n = 1_000_000
	const want = uint64(n) * (n - 1) / 2
	ctx := context.Background()
	entries := map[string]func(*Engine, *Module) (Result, error){
		"Call": func(eng *Engine, mod *Module) (Result, error) {
			return eng.Call(ctx, mod, "work", []uint64{n})
		},
		"WithInstanceContext": func(eng *Engine, mod *Module) (res Result, err error) {
			err = eng.WithInstanceContext(ctx, mod, func(inst *Instance) error {
				res, err = inst.Call(ctx, "work", []uint64{n})
				return err
			})
			return res, err
		},
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(FullHardening())
			mod := compileCallTest(t, eng)

			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := call(eng, mod)
				done <- outcome{res, err}
			}()

			// Wait for the checkout: one live instance, none idle.
			var pool *engine.Pool
			for deadline := time.Now().Add(10 * time.Second); pool == nil; time.Sleep(100 * time.Microsecond) {
				if rec := eng.records()[mod]; rec != nil {
					if s := rec.pool.Stats(); s.Live == 1 && s.Idle == 0 {
						pool = rec.pool
					}
				}
				if time.Now().After(deadline) {
					t.Fatal("the call never checked an instance out")
				}
			}
			eng.Close()

			out := <-done
			switch {
			case out.err == nil:
				if len(out.res.Values) != 1 || out.res.Values[0] != want {
					t.Errorf("work(%d) across Close = %v, want [%d]", n, out.res.Values, want)
				}
			case !errors.Is(out.err, engine.ErrPoolClosed):
				t.Errorf("call across Close failed with %v, want a result or ErrPoolClosed", out.err)
			}
			if s := pool.Stats(); s.Live != 0 || s.Idle != 0 {
				t.Errorf("after the call returned to a closed pool: Live=%d Idle=%d, want 0/0", s.Live, s.Idle)
			}
			if used := eng.rt.sandboxes.InUse(); used != 0 {
				t.Errorf("%d sandbox tags still held after Close, want 0", used)
			}
		})
	}
}
