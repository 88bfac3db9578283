package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// cacheKey identifies one discretization+universe build. Everything that
// influences stages 1–2 of the pipeline is part of the key; parameters
// that only affect mining (s, MaxLen, polarity, algorithm, workers) are
// deliberately absent so explorations with different mining settings
// share one universe. The epoch pins the build to one dataset version:
// requests arriving after an append miss the old entry and build the new
// epoch's universe from that epoch's rows alone, while explorations
// already holding the old entry keep their consistent snapshot until the
// LRU ages it out.
type cacheKey struct {
	dataset   string
	epoch     uint64
	stat      string
	actual    string
	predicted string
	target    string
	criterion discretize.Criterion
	st        float64
}

// cacheEntry holds the request-independent artifacts for one key: the
// table snapshot the build ran on, the outcome function, the item
// hierarchies and the precomputed universes for both exploration modes.
// All fields are written once by the build goroutine before ready is
// closed and are read-only afterwards, so entries are safe to share
// across concurrent explorations.
type cacheEntry struct {
	ready chan struct{} // closed when the build finishes (ok or not)
	err   error

	tab *dataset.Table
	out *outcome.Outcome
	hs  *hierarchy.Set
	uni map[core.Mode]*fpm.Universe
}

// built reports whether the entry finished building successfully, without
// blocking.
func (e *cacheEntry) built() bool {
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// universeCache is a keyed singleflight LRU cache of cacheEntry values:
// at most max entries are retained (0 or negative = unbounded), and
// inserting past the bound evicts a victim. Eviction prefers stale-epoch
// entries — ones whose key epoch no longer matches their dataset's
// current epoch — over the plain LRU tail, so append churn on one
// dataset cannot wash distinct still-current keys out of the cache.
// Evicted entries stay valid for requests already holding them —
// eviction only drops the cache's reference, so in-flight explorations
// are unaffected.
type universeCache struct {
	mu             sync.Mutex
	max            int
	entries        map[cacheKey]*list.Element // values: elements of lru
	lru            *list.List                 // front = most recently used *lruItem
	evictions      *obs.Counter               // may be nil
	staleEvictions *obs.Counter               // may be nil
	// currentEpoch reports a dataset's live epoch for stale-preferring
	// eviction; nil treats every entry as current (plain LRU).
	currentEpoch func(dataset string) uint64
}

// lruItem is one recency-list node: the key is carried along so eviction
// from the list tail can delete the map entry too.
type lruItem struct {
	key   cacheKey
	entry *cacheEntry
}

func newUniverseCache(max int, evictions, staleEvictions *obs.Counter) *universeCache {
	return &universeCache{
		max:            max,
		entries:        map[cacheKey]*list.Element{},
		lru:            list.New(),
		evictions:      evictions,
		staleEvictions: staleEvictions,
	}
}

// len reports the number of successfully built (or in-flight) entries.
func (c *universeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns the entry for key, building it with build on a miss. The
// build runs in a detached goroutine so that cancelling the requesting
// context never aborts (or poisons) a build other requests may be
// waiting on; the caller only stops waiting. Failed builds are removed
// from the cache before ready is closed, so errors are returned to every
// current waiter but never cached. The second result reports whether the
// entry already existed (a cache hit).
func (c *universeCache) get(ctx context.Context, key cacheKey, build func(*cacheEntry) error) (*cacheEntry, bool, error) {
	c.mu.Lock()
	var e *cacheEntry
	el, hit := c.entries[key]
	if hit {
		e = el.Value.(*lruItem).entry
		c.lru.MoveToFront(el)
	} else {
		e = &cacheEntry{ready: make(chan struct{})}
		el = c.lru.PushFront(&lruItem{key: key, entry: e})
		c.entries[key] = el
		c.evictOverflowLocked(el)
		go func() {
			e.err = runBuild(build, e)
			if e.err != nil {
				c.remove(key, e)
			}
			close(e.ready)
		}()
	}
	c.mu.Unlock()

	select {
	case <-e.ready:
		return e, hit, e.err
	case <-ctx.Done():
		return nil, hit, fmt.Errorf("server: waiting for universe build: %w", ctx.Err())
	}
}

// evictOverflowLocked drops entries until the cache fits its bound again.
// Victim selection prefers the least-recently-used *stale-epoch* entry (its
// dataset has moved past its epoch) other than added, the element just
// inserted, and falls back to the plain LRU tail when there is none: a
// pinned (stale-epoch) entry is never evicted by its own insertion, so
// the next identical pinned request hits it. Caller holds c.mu.
func (c *universeCache) evictOverflowLocked(added *list.Element) {
	if c.max <= 0 {
		return
	}
	for c.lru.Len() > c.max {
		el := c.staleVictimLocked(added)
		stale := el != nil
		if el == nil {
			el = c.lru.Back()
		}
		it := el.Value.(*lruItem)
		c.lru.Remove(el)
		delete(c.entries, it.key)
		c.evictions.Add(1)
		if stale {
			c.staleEvictions.Add(1)
		}
	}
}

// staleVictimLocked scans from the LRU tail for the first entry other
// than skip whose key epoch is behind its dataset's current epoch; nil
// when there is none (or no epoch oracle is wired).
func (c *universeCache) staleVictimLocked(skip *list.Element) *list.Element {
	if c.currentEpoch == nil {
		return nil
	}
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		k := el.Value.(*lruItem).key
		if el != skip && k.epoch != c.currentEpoch(k.dataset) {
			return el
		}
	}
	return nil
}

// retire drops every entry of the dataset at or below maxEpoch — the
// epoch-retention sweep, which keeps the cache from holding universes of
// epochs no request can name anymore — and makes every other built entry
// of it below current release its universes' kept FP-trees: an append
// superseded them, so only pinned requests still mine them, and those
// build their trees instead. Entries still held by in-flight explorations
// stay valid, only the cache's reference goes.
func (c *universeCache) retire(dataset string, maxEpoch, current uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.entries {
		if k.dataset != dataset || k.epoch >= current {
			continue
		}
		if k.epoch > maxEpoch {
			if e := el.Value.(*lruItem).entry; e.built() {
				for _, u := range e.uni {
					u.ReleaseTree()
				}
			}
			continue
		}
		c.lru.Remove(el)
		delete(c.entries, k)
		n++
	}
	return n
}

// remove deletes key from the cache, but only while it still maps to e:
// a failed build must not knock out a newer entry that replaced it after
// eviction.
func (c *universeCache) remove(key cacheKey, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*lruItem).entry == e {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// runBuild invokes build, converting a panic into an error: the build
// goroutine is detached, so an unrecovered panic there would kill the
// whole process instead of failing one entry. With the recover, a
// panicking build poisons only its own waiters — the error is returned
// to every request waiting on the entry and the entry is never cached.
func runBuild(build func(*cacheEntry) error, e *cacheEntry) (err error) {
	defer func() {
		if pe := engine.RecoverError(recover()); pe != nil {
			err = pe
		}
	}()
	return build(e)
}

// buildEntry is the universe-cache build function: pipeline stages 1–2
// for one cache key on the request's snapshot — statistic resolution,
// the hierarchy set (discretize.Hierarchies, the one assembly
// hdivexplorer.PipelineContext also calls, so server explorations are
// indistinguishable from CLI ones), then universe precomputation for
// both exploration modes. The tracer (usually the first requester's,
// possibly nil) receives the discretize spans.
//
// An entry depends on its epoch's rows alone: every step runs on the
// snapshot, and no build reads an earlier epoch's entry. Every leaf is
// also a hierarchical item, so the base universe is built with the
// entry's own hierarchical universe as its prior (fpm.NewUniverseFrom)
// and shares its leaf row sets read-only, with no second pass over the
// rows.
func (s *Server) buildEntry(e *cacheEntry, p *exploreParams, tracer *obs.Tracer) error {
	if err := faultinject.Hit(faultinject.SiteCacheFill); err != nil {
		return err
	}
	key, tab := p.key(), p.tab
	out, excludes, err := core.BuildStatistic(tab, key.stat, key.actual, key.predicted, key.target)
	if err != nil {
		return err
	}
	hs, err := discretize.Hierarchies(tab, out, discretize.TreeOptions{
		Criterion:  key.criterion,
		MinSupport: key.st,
		Tracer:     tracer,
	}, nil, excludes...)
	if err != nil {
		return err
	}
	hier := fpm.NewUniverse(tab, hs.AllItems(), out)
	e.tab = tab
	e.out = out
	e.hs = hs
	e.uni = map[core.Mode]*fpm.Universe{
		core.Hierarchical: hier,
		core.Base:         fpm.NewUniverseFrom(tab, hs.AllLeafItems(), out, hier),
	}
	return nil
}
