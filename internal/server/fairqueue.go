package server

import "sync"

// fairQueue is the multi-tenant dispatch queue that replaced the single
// FIFO channel between Submit and the worker pool. Jobs are held in one
// FIFO lane per tenant and dispatched by deficit round-robin: each lane
// earns its weight in credits per scheduling round and spends one credit
// per dispatched job, so a tenant bursting hundreds of submissions only
// delays its own backlog — other tenants keep dispatching at their fair
// share. Within a lane, submission order is preserved.
//
// The queue also enforces each tenant's running cap: a lane whose
// dispatched-but-unsettled job count has reached its MaxRunning quota is
// skipped (without losing its round-robin position) until release frees
// a slot.
//
// Dispatch order is the ONLY thing this structure changes relative to
// the channel it replaced. Simulation results are unaffected: every job
// still runs on its own engine instance, and the determinism digests are
// a function of the spec alone (DESIGN.md §16).
//
// Locking: fairQueue has no lock of its own. Every call runs under the
// manager's mutex, which cond is built over, so the queue is one ledger
// with the job table. Workers block in pop on cond, which releases the
// mutex while they wait, so status reads stay responsive while the pool
// is idle.
type fairQueue struct {
	cond   *sync.Cond
	size   int // queued jobs across all lanes
	closed bool

	lanes map[string]*tenantLane
	ring  []*tenantLane // lanes with queued jobs, round-robin order
	cur   int           // ring index the next dispatch scan starts at
}

// tenantLane is one tenant's FIFO and its scheduling state.
type tenantLane struct {
	jobs       []*job
	parked     int // jobs waiting out a retry backoff, bound to re-enter jobs
	weight     int // credits earned per round (DRR quantum), >= 1
	deficit    int // credits available to spend
	running    int // popped but not yet released
	maxRunning int // 0 = unlimited
	inRing     bool
}

// newFairQueue returns an empty queue whose callers hold mu.
func newFairQueue(mu *sync.Mutex) *fairQueue {
	return &fairQueue{
		cond:  sync.NewCond(mu),
		lanes: make(map[string]*tenantLane),
	}
}

// configureTenant pins a lane's weight and running cap before the queue
// is in use. Unconfigured tenants get weight 1 and no running cap.
func (q *fairQueue) configureTenant(tenant string, weight, maxRunning int) {
	l := q.lane(tenant)
	l.weight = max(weight, 1)
	l.maxRunning = maxRunning
}

// lane returns (creating if needed) the tenant's lane.
func (q *fairQueue) lane(tenant string) *tenantLane {
	l, ok := q.lanes[tenant]
	if !ok {
		l = &tenantLane{weight: 1}
		q.lanes[tenant] = l
	}
	return l
}

// add queues j at the tail of its tenant's lane and wakes one worker. It
// never refuses: the manager gates intake against its queue bound and
// its closed flag before it adds.
func (q *fairQueue) add(j *job) {
	l := q.lane(j.tenant)
	l.jobs = append(l.jobs, j)
	q.size++
	if !l.inRing {
		l.inRing = true
		q.ring = append(q.ring, l)
	}
	q.cond.Signal()
}

// pop blocks until a job is dispatchable and returns it, charging the
// tenant's lane one running slot (released by release). It returns
// ok=false only when the queue is closed AND no dispatchable job
// remains — like a drained closed channel, jobs still queued at close
// keep being handed out so the pool can drain them.
func (q *fairQueue) pop() (*job, bool) {
	for {
		if j := q.dispatch(); j != nil {
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// dispatch runs one deficit-round-robin scan: starting at cur, the first
// lane with queued work, spare running quota and a credit to spend
// dispatches its head job. A lane that spends its last credit (or
// empties) hands the turn to the next lane; one with credit left keeps
// the turn, so a weight-w tenant dispatches up to w consecutive jobs per
// round.
func (q *fairQueue) dispatch() *job {
	for scanned := 0; scanned < len(q.ring); scanned++ {
		idx := (q.cur + scanned) % len(q.ring)
		l := q.ring[idx]
		if l.maxRunning > 0 && l.running >= l.maxRunning {
			continue // at its running cap; keeps its place in the ring
		}
		if l.deficit < 1 {
			l.deficit += l.weight
		}
		j := l.jobs[0]
		l.jobs[0] = nil // release the reference for GC
		l.jobs = l.jobs[1:]
		l.deficit--
		l.running++
		q.size--
		if len(l.jobs) == 0 {
			q.leaveRing(idx)
		} else if l.deficit < 1 {
			q.cur = (idx + 1) % len(q.ring)
		} else {
			q.cur = idx // credit left: this lane keeps the turn
		}
		return j
	}
	return nil
}

// leaveRing takes the emptied lane at ring index idx out of the ring. It
// forfeits saved credit — deficit must not accumulate while a tenant has
// nothing queued, or an idle tenant could later burst past its share.
func (q *fairQueue) leaveRing(idx int) {
	l := q.ring[idx]
	l.deficit = 0
	l.inRing = false
	q.ring = append(q.ring[:idx], q.ring[idx+1:]...)
	if q.cur > idx {
		q.cur--
	}
	if len(q.ring) > 0 {
		q.cur %= len(q.ring)
	} else {
		q.cur = 0
	}
}

// release returns a running slot to the tenant's lane once its job
// settles (or its dispatch was abandoned), waking a worker that may have
// been blocked on the tenant's running cap.
func (q *fairQueue) release(tenant string) {
	if l, ok := q.lanes[tenant]; ok && l.running > 0 {
		l.running--
	}
	q.cond.Signal()
}

// remove takes a still-queued job out of its tenant's lane (cancellation
// while queued), freeing its slot immediately. Reports whether j was
// found.
func (q *fairQueue) remove(j *job) bool {
	l, ok := q.lanes[j.tenant]
	if !ok {
		return false
	}
	for i, queued := range l.jobs {
		if queued != j {
			continue
		}
		l.jobs = append(l.jobs[:i], l.jobs[i+1:]...)
		q.size--
		if len(l.jobs) == 0 && l.inRing {
			for k, rl := range q.ring {
				if rl == l {
					q.leaveRing(k)
					break
				}
			}
		}
		return true
	}
	return false
}

// close stops pop from blocking: drained workers exit once the queue is
// empty. Idempotent.
func (q *fairQueue) close() {
	q.closed = true
	q.cond.Broadcast()
}

// Len is the total number of queued jobs across all lanes.
func (q *fairQueue) Len() int { return q.size }

// pending is what the tenant's MaxQueued quota is checked against: the
// jobs waiting in its lane plus those parked on a retry backoff.
func (q *fairQueue) pending(tenant string) int {
	if l, ok := q.lanes[tenant]; ok {
		return len(l.jobs) + l.parked
	}
	return 0
}
