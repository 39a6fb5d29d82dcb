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
// Locking: fairQueue has its own mutex, below the manager's in the lock
// order — manager code calls into the queue while holding m.mu, the
// queue never calls back into the manager. Workers block in pop without
// holding m.mu, so status reads stay responsive while the pool is idle.
type fairQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	size     int
	closed   bool

	lanes map[string]*tenantLane
	ring  []*tenantLane // lanes with pending jobs, round-robin order
	cur   int           // ring index the next dispatch scan starts at
}

// tenantLane is one tenant's FIFO and its scheduling state.
type tenantLane struct {
	tenant     string
	jobs       []*job
	weight     int // credits earned per round (DRR quantum), >= 1
	deficit    int // credits available to spend
	running    int // popped but not yet released
	maxRunning int // 0 = unlimited
	inRing     bool
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{
		capacity: capacity,
		lanes:    make(map[string]*tenantLane),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// configureTenant pins a lane's weight and running cap before the queue
// is in use. Unconfigured tenants get weight 1 and no running cap.
func (q *fairQueue) configureTenant(tenant string, weight, maxRunning int) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.lane(tenant)
	l.weight = weight
	l.maxRunning = maxRunning
}

// lane returns (creating if needed) the tenant's lane. Caller holds q.mu.
func (q *fairQueue) lane(tenant string) *tenantLane {
	l, ok := q.lanes[tenant]
	if !ok {
		l = &tenantLane{tenant: tenant, weight: 1}
		q.lanes[tenant] = l
	}
	return l
}

// push appends a new job to its tenant's lane. It reports false when the
// queue is at capacity or closed; it never blocks. All pushes happen
// under the manager's mutex, so a capacity check followed by a push
// cannot race another producer past the bound.
func (q *fairQueue) push(tenant string, j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.capacity {
		return false
	}
	q.appendLocked(tenant, j)
	return true
}

// readmit appends a job the manager already accepted (an expired retry,
// a promoted follower, a recovered job) to its tenant's lane. It never
// fails: the capacity bound gates intake only, so readmitted jobs may
// briefly hold the queue past it while push keeps refusing new work.
func (q *fairQueue) readmit(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.appendLocked(j.tenant, j)
}

// appendLocked queues j at the tail of the tenant's lane and wakes one
// worker. Caller holds q.mu.
func (q *fairQueue) appendLocked(tenant string, j *job) {
	l := q.lane(tenant)
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
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.dispatchLocked(); j != nil {
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// dispatchLocked runs one deficit-round-robin scan: starting at cur,
// the first lane with pending work, spare running quota and a credit to
// spend dispatches its head job. A lane that spends its last credit (or
// empties) hands the turn to the next lane; one with credit left keeps
// the turn, so a weight-w tenant dispatches up to w consecutive jobs per
// round. Caller holds q.mu.
func (q *fairQueue) dispatchLocked() *job {
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
			q.leaveRingLocked(idx)
		} else if l.deficit < 1 {
			q.cur = (idx + 1) % len(q.ring)
		} else {
			q.cur = idx // credit left: this lane keeps the turn
		}
		return j
	}
	return nil
}

// leaveRingLocked takes the emptied lane at ring index idx out of the
// ring. It forfeits saved credit — deficit must not accumulate while a
// tenant has nothing queued, or an idle tenant could later burst past
// its share. Caller holds q.mu.
func (q *fairQueue) leaveRingLocked(idx int) {
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
	q.mu.Lock()
	defer q.mu.Unlock()
	if l, ok := q.lanes[tenant]; ok && l.running > 0 {
		l.running--
	}
	q.cond.Signal()
}

// remove takes a still-queued job out of its tenant's lane (cancellation
// while queued), freeing its capacity slot immediately instead of
// waiting for a worker to pop and discard it. Reports whether j was
// found.
func (q *fairQueue) remove(tenant string, j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.lanes[tenant]
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
					q.leaveRingLocked(k)
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
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len is the total number of queued jobs across all lanes.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Cap is the queue's capacity bound on intake; readmitted jobs may push
// Len past it.
func (q *fairQueue) Cap() int { return q.capacity }

// queued reports how many jobs the tenant has waiting in its lane — the
// count its MaxQueued quota is checked against.
func (q *fairQueue) queued(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if l, ok := q.lanes[tenant]; ok {
		return len(l.jobs)
	}
	return 0
}
