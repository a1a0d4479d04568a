package adversary

import (
	"fmt"

	"cage"
	"cage/internal/arch"
)

// Speculative-leak scenarios. The interpreter does not speculate, so
// the leak itself is modeled, the way MTE and PAC are modeled
// elsewhere: a gadget program executes the attacker-relevant control
// flow (bounds-checked loads behind returns, indirect calls through a
// poisonable table), and the damage indicator is leakage observable in
// the event stream. A configuration closes the modeled channel exactly
// when, in the observed run,
//
//   - every executed speculation site — return, call_indirect,
//     br_table — is covered by a fence event (the hardened lowering
//     emits the fence adjacent to the site, so coverage means
//     fences >= sites with both nonzero), and
//   - at least one BTB flush guarded the sandbox transition, so the
//     attacker cannot have entered the guest with a poisoned predictor.
//
// Only the hardened preset satisfies both; every other configuration —
// including full — leaves the speculative window open and the verdict
// is exploited, with the uncovered site count as the machine-readable
// leakage indicator.

// SpeculativeScenarios returns the speculative-leak family: the
// bounds-check-bypass gadget and the poisoned indirect-branch gadget.
func SpeculativeScenarios() []Scenario {
	return []Scenario{
		&prog{
			name:   "spectre-bounds-check-bypass",
			family: "speculative",
			// A Spectre-v1 gadget: probe's length check guards the
			// load, and its return is the speculation site through
			// which the mispredicted-path load would transmit. The run
			// is architecturally benign; the oracle inspects the fence
			// coverage of the executed returns.
			source: `
extern char* malloc(long n);
long probe(long* arr, long i, long n) {
    if (i < n) { return arr[i]; }
    return 0;
}
long attack(long rounds) {
    long* arr = (long*)malloc(16 * 8);
    for (long i = 0; i < 16; i++) { arr[i] = i; }
    long acc = 0;
    for (long i = 0; i < rounds; i++) {
        acc = acc + probe(arr, i - (i / 16) * 16, 16);
    }
    if (acc < 0) { return 1; }
    return 0;
}`,
			entry:    "attack",
			arg:      64,
			expect:   expectSpeculative,
			classify: classifySpeculative,
		},
		&prog{
			name:   "spectre-poisoned-indirect-branch",
			family: "speculative",
			// A Spectre-v2 gadget: the loop's indirect calls through
			// the vtable are the poisonable branch targets. Training
			// alternates the two slots so both targets are executed;
			// the oracle requires every call_indirect (and every
			// return) to sit behind a fence, plus the BTB flush at
			// guest entry that evicts predictor state trained outside
			// the sandbox.
			source: `
long acc = 0;
void tick(void) { acc = acc + 1; }
void tock(void) { acc = acc + 2; }
struct VTable { void (*f)(void); void (*g)(void); };
long attack(long rounds) {
    struct VTable vt;
    vt.f = tick;
    vt.g = tock;
    long flip = 0;
    for (long i = 0; i < rounds; i++) {
        if (flip) { vt.f(); } else { vt.g(); }
        flip = 1 - flip;
    }
    if (acc < 0) { return 1; }
    return 0;
}`,
			entry:    "attack",
			arg:      64,
			expect:   expectSpeculative,
			classify: classifySpeculative,
		},
	}
}

// expectSpeculative: the modeled leak is closed only by the Spectre
// mitigations; every preset without them — including full — leaves it
// exploitable.
func expectSpeculative(cfg cage.Config) Outcome {
	if cfg.SpectreHarden {
		return Outcome{Verdict: VerdictMitigatedTiming}
	}
	return Outcome{Verdict: VerdictExploited}
}

// classifySpeculative derives the verdict from the run's event delta.
func classifySpeculative(_ cage.Config, obs Observation) Outcome {
	if obs.Trapped {
		// A trap would mean the gadget is not benign — surfaced as an
		// oracle mismatch, never silently absorbed.
		return Outcome{Verdict: VerdictTrapped, Class: ClassOf(obs.TrapCode),
			Detail: obs.TrapCode.String()}
	}
	fences := obs.Events.Get(arch.EvFence)
	flushes := obs.Events.Get(arch.EvBTBFlush)
	sites := obs.Events.Get(arch.EvReturn) +
		obs.Events.Get(arch.EvCallIndirect) +
		obs.Events.Get(arch.EvBrTable)
	if fences >= sites && fences > 0 && flushes > 0 {
		return Outcome{Verdict: VerdictMitigatedTiming, Detail: fmt.Sprintf(
			"%d fences cover %d speculation sites; %d BTB flushes", fences, sites, flushes)}
	}
	uncovered := sites
	if fences < sites {
		uncovered = sites - fences
	}
	return Outcome{Verdict: VerdictExploited, Detail: fmt.Sprintf(
		"%d of %d speculation sites unfenced", uncovered, sites)}
}
