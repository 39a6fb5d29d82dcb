package server

import (
	"encoding/json"
	"errors"

	"hmcsim/internal/ckey"
	"hmcsim/internal/server/cache"
	"hmcsim/internal/store"
)

// recoverFromJournal rebuilds the job table from the store's replayed
// journal. It runs synchronously inside NewManager, before the worker
// pool starts, so the rebuilt table and queue are complete before any
// request or worker can observe them (which is also why it may call the
// Locked helpers without taking m.mu). The reduction over the record
// stream is:
//
//	submitted            -> the job exists, queued, numbered by its ID
//	started              -> attempt counter advances
//	checkpoint           -> nothing (the blob's presence is the signal)
//	done                 -> terminal; result reloaded from the blob store
//	failed (transient)   -> stays queued, attempt counter preserved
//	failed (final)       -> terminal
//	cancelled            -> terminal
//
// Submissions are journaled in number order, so a submitted record whose
// ID does not parse, or whose number is not past every earlier one (a
// duplicate), is skipped, and the table comes out in number order. Any
// job that finishes the reduction still queued was interrupted by the
// crash (or journaled as retryable) and is readmitted to the queue in
// its original submission order. A done record whose result blob
// will not load degrades to queued: the job reruns, which is safe
// because execution is deterministic.
func (m *Manager) recoverFromJournal() {
	for _, rec := range m.store.Records() {
		j := m.jobs[rec.Job]
		if rec.Type != store.RecSubmitted && j == nil {
			// The submission record was lost to tail truncation along
			// with everything before this record; nothing to rebuild.
			continue
		}
		switch rec.Type {
		case store.RecSubmitted:
			n, ok := parseJobID(rec.Job)
			if !ok || n <= m.seq {
				continue // not an ID this manager issues, or a duplicate
			}
			m.seq = n // issued, so never issued again
			var spec JobSpec
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				continue // unreadable spec cannot be rerun
			}
			j = &job{
				seq:       n,
				id:        rec.Job,
				spec:      spec,
				tenant:    rec.Tenant,
				submitted: rec.Time,
				state:     state{phase: StateQueued},
			}
			m.jobs[j.id] = j
			m.order = append(m.order, j)
			if rec.Key != "" {
				m.idem[rec.Key] = j.id
			}
		case store.RecStarted:
			if rec.Attempt > j.attempt {
				j.attempt = rec.Attempt
			}
		case store.RecDone:
			res := new(Result)
			if err := m.store.LoadResult(rec.Job, res); err != nil {
				continue // degrade to queued; the job reruns
			}
			j.state.phase = StateDone
			j.state.result = res
			j.state.finished = rec.Time
			// Rebuild the result-cache index from the journaled spec key.
			// Record order approximates recency; served copies ("hit",
			// "coalesced") refresh the entry with identical content.
			if m.cfg.CacheBytes > 0 && rec.SpecKey != "" {
				if k, err := ckey.Parse(rec.SpecKey); err == nil {
					j.specKey = k
					cp := *res
					cp.Cache = ""
					m.cache.Put(k, &cp, 0)
				}
			}
		case store.RecFailed:
			if rec.Transient && j.attempt < m.cfg.MaxAttempts {
				j.state.phase = StateQueued
				j.state.err = errors.New(rec.Error)
				continue
			}
			j.state.phase = StateFailed
			j.state.err = errors.New(rec.Error)
			j.state.finished = rec.Time
		case store.RecCancelled:
			j.cancelled = true
			j.state.phase = StateCancelled
			j.state.finished = rec.Time
		}
	}
	for _, j := range m.order {
		if j.state.phase == StateQueued {
			// Recovered jobs run as independent submissions — replay does
			// not re-coalesce identical pending specs (each was separately
			// journaled and owes its own completion record) — but they
			// re-key here so their results land in the cache.
			if m.cfg.CacheBytes > 0 && j.specKey.IsZero() {
				j.specKey = cache.JobKey(j.spec)
			}
			m.readmitLocked(j)
			m.recovered.Add(1)
		}
	}
}
