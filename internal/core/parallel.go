package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/par"
)

// nodeOutcome is the result of verifying one candidate event combination:
// the green node (nil if pruned or patternless) and the local stat deltas.
type nodeOutcome struct {
	node *hpg.Node
	ls   LevelStats
}

// runParallel fans the tasks out over the configured workers, each owning
// one scratch drawn from the miner's pool for the drain (and reset between
// nodes by the verification routines), and returns the outcomes in task
// order — parallel runs therefore produce byte-identical results to serial
// runs. Pooling the scratches across drains means the per-level ramp-up
// allocates nothing once the pool is warm. Each of par.For's indexes is
// one worker, which pulls tasks from a shared counter.
//
// done is the cancellation channel of the run's context: when it fires,
// workers stop picking up tasks and return early. The caller (Mine)
// detects cancellation via ctx.Err(), so partially-filled outcomes are
// never observed by users.
func runParallel[T, R any](done <-chan struct{}, workers int, pool *sync.Pool, tasks []T, fn func(*scratch, T) R) []R {
	out := make([]R, len(tasks))
	workers = min(max(workers, 1), len(tasks))
	var next atomic.Int64
	par.For(workers, workers, func(int) {
		scr := pool.Get().(*scratch)
		defer pool.Put(scr)
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			out[i] = fn(scr, tasks[i])
		}
	})
	return out
}

// mergeInto folds one worker outcome into the level and its stats; the
// drains call it in task order.
func (o *nodeOutcome) mergeInto(level *hpg.Level, ls *LevelStats) {
	ls.Candidates += o.ls.Candidates
	ls.PrunedApriori += o.ls.PrunedApriori
	ls.PrunedTrans += o.ls.PrunedTrans
	ls.NodesVerified += o.ls.NodesVerified
	ls.MemoHits += o.ls.MemoHits
	ls.Patterns += o.ls.Patterns
	ls.Occurrences += o.ls.Occurrences
	ls.TripleChecksFailed += o.ls.TripleChecksFailed
	if o.node != nil {
		level.Add(o.node)
		ls.GreenNodes++
	}
}

// pairTask is one L2 candidate.
type pairTask struct{ a, b events.EventID }

// pairOutcome is a nodeOutcome plus the pair's memo entry; fresh marks an
// entry this run verified (in part), which goes to the view's memo.
type pairOutcome struct {
	nodeOutcome
	entry pairEntry
	fresh bool
}

// extendTask is one L_k candidate: a parent node and the event extending
// it.
type extendTask struct {
	parent *hpg.Node
	e      events.EventID
}

// verifyPairTask runs the full L2 treatment of one candidate pair:
// Apriori filtering (Lemmas 2-3, when enabled) on the event bitmaps and
// relation verification.
func (m *miner) verifyPairTask(scr *scratch, t pairTask) pairOutcome {
	var o pairOutcome
	o.ls.Candidates++
	bm := m.eventBm[t.a].And(m.eventBm[t.b])
	supp := bm.Count()
	groupConf := float64(supp) / float64(m.maxEventSupport([]events.EventID{t.a, t.b}))
	if m.cfg.Pruning.apriori() && (supp < m.minSupp || groupConf < m.cfg.MinConfidence) {
		o.ls.PrunedApriori++
		return o
	}
	o.ls.NodesVerified++
	node := hpg.NewNode([]events.EventID{t.a, t.b}, bm, supp, groupConf)
	m.verifyPair(node, scr, &o)
	if node.NumPatterns() > 0 {
		o.node = node
	}
	return o
}

// extendNodeTask runs the full L_k treatment of one candidate extension:
// Lemma 5 and Apriori filtering (when enabled) and occurrence extension.
// The filters read only counts, and the child node — its events, joint
// bitmap and patterns — is allocated only when some pattern survives.
func (m *miner) extendNodeTask(scr *scratch, t extendTask) nodeOutcome {
	var o nodeOutcome
	o.ls.Candidates++
	if m.cfg.Pruning.trans() && !m.lemma5Allows(t.parent, t.e) {
		o.ls.PrunedTrans++
		return o
	}
	supp := t.parent.Bitmap.AndCount(m.eventBm[t.e])
	maxSupp := max(m.maxEventSupport(t.parent.Events), m.eventSupp[t.e])
	groupConf := float64(supp) / float64(maxSupp)
	if m.cfg.Pruning.apriori() && (supp < m.minSupp || groupConf < m.cfg.MinConfidence) {
		o.ls.PrunedApriori++
		return o
	}
	o.ls.NodesVerified++
	if survivors := m.extendNode(t.parent, t.e, maxSupp, scr, &o.ls); len(survivors) > 0 {
		groupEvents := append(slices.Clip(t.parent.Events), t.e)
		o.node = hpg.NewNode(groupEvents, t.parent.Bitmap.And(m.eventBm[t.e]), supp, groupConf)
		m.addPatterns(o.node, survivors, maxSupp, &o.ls)
	}
	return o
}
