package evolve

import (
	"fmt"

	"repro/internal/fault"
)

// chaosMaxRounds bounds retransmission rounds. StreamPlan rules are
// probabilistic and every attempt of a batch is a new site, so a batch
// misses a round with probability 0.36 (delayed 0.2, else dropped 0.2)
// and is delivered well within the bound; hitting it means a plan was
// configured with always-fire drop rules and is reported as a budget
// exhaustion, not a hang.
const chaosMaxRounds = 256

// DeliverStats summarises one chaos delivery run.
type DeliverStats struct {
	// Delivered counts batches handed to the receiver (first copies of
	// eventual exactly-once applications; duplicates are separate).
	Delivered int
	// Dropped counts in-flight losses (each followed by a
	// retransmission in a later round).
	Dropped int
	// Duplicated counts extra deliveries of a batch the receiver must
	// dedup.
	Duplicated int
	// Delayed counts batches pushed past later-sequenced batches,
	// arriving out of order.
	Delayed int
	// Rounds is how many transport rounds it took to deliver everything.
	Rounds int
}

// ChaosDeliver pushes a batch sequence through a deterministic lossy,
// duplicating, reordering transport driven by a fault injector, and
// keeps retransmitting until every batch has been delivered. submit is
// the receiver (typically Mutable.Submit or the serve daemon's Mutate);
// its sequence-number protocol must absorb everything the transport
// does — after ChaosDeliver returns nil, the receiver's state is
// byte-identical to clean in-order application of batches.
//
// Determinism: injection decisions are pure functions of (plan seed,
// rule, site) with the per-batch attempt counter folded into the site,
// so a given (plan, batches) pair always produces the same delivery
// schedule.
func ChaosDeliver(submit func(Batch) (SubmitResult, error), batches []Batch, inj *fault.Injector) (DeliverStats, error) {
	var st DeliverStats
	type flight struct {
		b       Batch
		attempt int
	}
	queue := make([]flight, len(batches))
	for i, b := range batches {
		queue[i] = flight{b: b}
	}
	for len(queue) > 0 {
		if st.Rounds >= chaosMaxRounds {
			return st, fmt.Errorf("%w: %d batches undelivered after %d transport rounds",
				fault.ErrBudgetExhausted, len(queue), st.Rounds)
		}
		st.Rounds++
		var next []flight
		for _, f := range queue {
			site := fault.Site{
				Engine:  "stream",
				Op:      "deliver",
				Step:    int(f.b.Seq),
				Task:    0,
				Attempt: f.attempt,
			}
			if inj.DelayAt(site) {
				// Held past this round's later-sequenced batches:
				// arrives out of order, exercising the reorder buffer.
				st.Delayed++
				next = append(next, flight{b: f.b, attempt: f.attempt + 1})
				continue
			}
			if inj.DropAt(site) {
				// Lost in flight; the sender retransmits next round.
				st.Dropped++
				next = append(next, flight{b: f.b, attempt: f.attempt + 1})
				continue
			}
			if inj.DupAt(site) {
				st.Duplicated++
				if _, err := submit(f.b); err != nil {
					return st, err
				}
			}
			if _, err := submit(f.b); err != nil {
				return st, err
			}
			st.Delivered++
		}
		queue = next
	}
	return st, nil
}
