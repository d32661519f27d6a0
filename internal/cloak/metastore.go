package cloak

import "overshadow/internal/sim"

// MetaStore is the VMM's authoritative map from cloaked-page identity to the
// current (IV, H, version) record, fronted by a fixed-capacity cache.
//
// In the paper the working set of metadata lives in a VMM-private cache and
// the overflow is protected by a hash tree so it can spill to (untrusted)
// memory; here the backing map plays the role of the hash-tree-protected
// spill area, and crossing between cache and backing store is what costs
// cycles. Records themselves are always trustworthy — the point of the cache
// is the E10c ablation (sensitivity to cache size), not security.
type MetaStore struct {
	world   *sim.World
	cap     int
	cache   map[PageID]Meta
	backing map[PageID]Meta

	// FIFO eviction order, consumed from head. Advancing head instead of
	// re-slicing keeps the backing array reclaimable: a long page-out sweep
	// used to pin every PageID ever enqueued (order = order[1:] retains the
	// full array), so the queue is compacted once the dead prefix dominates.
	order []PageID
	head  int

	// One-entry MRU cache per vCPU in front of the map: sequential touch
	// patterns (streaming reads/writes, fork re-cloak, eager encryption
	// sweeps) hit the same PageID several times in a row, and the map lookup
	// + hash is the metastore's hot-path cost. The slot is per vCPU —
	// indexed by the executing vCPU's ID — so two CPUs streaming different
	// resources don't thrash one shared slot. Invariant: ok implies id is
	// present in cache with value meta, so the fast path charges the same
	// MetaCacheHit a map hit would; Delete/DeleteDomain/evictOne clear
	// matching slots on every vCPU.
	mru []mruSlot
}

// mruSlot is one vCPU's most-recently-used metadata record.
type mruSlot struct {
	id   PageID
	meta Meta
	ok   bool
}

// NewMetaStore builds a store whose cache holds cacheCap records. Neither
// map is pre-sized: both grow with the records actually stored. cacheCap
// bounds the cache, it does not predict it, and most machines hold far
// fewer records than the default 4096 (a paging workload may never spill
// to the backing area at all), so pre-sizing both maps to the cache
// capacity cost every machine the heap of 8192 records up front.
func NewMetaStore(world *sim.World, cacheCap int) *MetaStore {
	if cacheCap <= 0 {
		cacheCap = 1
	}
	return &MetaStore{
		world:   world,
		cap:     cacheCap,
		cache:   make(map[PageID]Meta),
		backing: make(map[PageID]Meta),
		mru:     make([]mruSlot, world.NumVCPUs()),
	}
}

// slot returns the executing vCPU's MRU slot.
func (s *MetaStore) slot() *mruSlot { return &s.mru[s.world.CPU().ID()] }

// dropMRU invalidates id's MRU entry on every vCPU (deletion and eviction
// must not leave any CPU a stale fast path).
func (s *MetaStore) dropMRU(id PageID) {
	for i := range s.mru {
		if s.mru[i].ok && s.mru[i].id == id {
			s.mru[i].ok = false
		}
	}
}

// Put records meta as the current record for id.
func (s *MetaStore) Put(id PageID, meta Meta) {
	if _, ok := s.cache[id]; !ok {
		if len(s.cache) >= s.cap {
			s.evictOne()
		}
		s.order = append(s.order, id)
	}
	s.cache[id] = meta
	*s.slot() = mruSlot{id: id, meta: meta, ok: true}
}

func (s *MetaStore) evictOne() {
	for s.head < len(s.order) {
		victim := s.order[s.head]
		s.head++
		if m, ok := s.cache[victim]; ok {
			// Spill to the hash-tree-protected backing area.
			s.backing[victim] = m
			delete(s.cache, victim)
			s.dropMRU(victim)
			s.world.CPU().ChargeAdd(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss, 0)
			s.compactOrder()
			return
		}
	}
	s.compactOrder()
}

// compactOrder drops the consumed prefix once it dominates the queue, so
// the FIFO's memory stays proportional to the live cache instead of the
// total eviction history. The threshold keeps amortized cost O(1) per
// eviction without changing eviction order at all.
func (s *MetaStore) compactOrder() {
	if s.head < 64 || s.head*2 < len(s.order) {
		return
	}
	n := copy(s.order, s.order[s.head:])
	// Zero the tail so the shrunk slice doesn't pin stale PageIDs.
	tail := s.order[n:]
	for i := range tail {
		tail[i] = PageID{}
	}
	s.order = s.order[:n]
	s.head = 0
}

// Get returns the current record for id, charging the cache hit or miss
// cost. ok is false if the page has never been encrypted.
func (s *MetaStore) Get(id PageID) (Meta, bool) {
	c := s.world.CPU()
	sl := s.slot()
	if sl.ok && id == sl.id {
		c.ChargeCount(s.world.Cost.MetaCacheHit, sim.CtrMetaCacheHit)
		return sl.meta, true
	}
	if m, ok := s.cache[id]; ok {
		c.ChargeCount(s.world.Cost.MetaCacheHit, sim.CtrMetaCacheHit)
		*sl = mruSlot{id: id, meta: m, ok: true}
		return m, true
	}
	if m, ok := s.backing[id]; ok {
		c.ChargeCount(s.world.Cost.MetaCacheMiss, sim.CtrMetaCacheMiss)
		// Promote back into the cache.
		s.Put(id, m)
		return m, true
	}
	return Meta{}, false
}

// Version returns the recorded version for id without promotion side
// effects (0 if never encrypted). Used when encrypting to derive the next
// version.
func (s *MetaStore) Version(id PageID) uint64 {
	if sl := s.slot(); sl.ok && id == sl.id {
		return sl.meta.Version
	}
	if m, ok := s.cache[id]; ok {
		return m.Version
	}
	if m, ok := s.backing[id]; ok {
		return m.Version
	}
	return 0
}

// Delete forgets the record for id (resource teardown).
func (s *MetaStore) Delete(id PageID) {
	delete(s.cache, id)
	delete(s.backing, id)
	s.dropMRU(id)
}

// DeleteDomain forgets every record belonging to a domain (domain
// teardown); the cloaked data becomes permanently unrecoverable.
func (s *MetaStore) DeleteDomain(d DomainID) {
	//overlint:allow hotpathalloc -- domain teardown sweep, not per-page work; deletes are order-independent
	for id := range s.cache {
		if id.Domain == d {
			delete(s.cache, id)
		}
	}
	//overlint:allow hotpathalloc -- domain teardown sweep, not per-page work; deletes are order-independent
	for id := range s.backing {
		if id.Domain == d {
			delete(s.backing, id)
		}
	}
	for i := range s.mru {
		if s.mru[i].ok && s.mru[i].id.Domain == d {
			s.mru[i].ok = false
		}
	}
}

// DomainRecords reports how many records belong to domain d (cache +
// backing, deduplicated). The quarantine residue checks use it to assert a
// contained domain leaks no metadata.
func (s *MetaStore) DomainRecords(d DomainID) int {
	n := 0
	for id := range s.backing {
		if id.Domain == d {
			n++
		}
	}
	for id := range s.cache {
		if id.Domain != d {
			continue
		}
		if _, dup := s.backing[id]; !dup {
			n++
		}
	}
	return n
}

// Len reports the total number of records (cache + backing).
func (s *MetaStore) Len() int {
	n := len(s.backing)
	for id := range s.cache {
		if _, dup := s.backing[id]; !dup {
			n++
		}
	}
	return n
}

// BytesPerRecord is the metadata space cost per cloaked page used by the E7
// space-overhead experiment: IV + hash + version + identity key.
const BytesPerRecord = IVSize + HashSize + 8 + 20

// SpaceOverheadBytes reports total metadata bytes currently held.
func (s *MetaStore) SpaceOverheadBytes() int { return s.Len() * BytesPerRecord }
