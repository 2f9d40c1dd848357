package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The access path tries a two-entry most-recently-used hint before it
// scans a set. These tests check the whole cache against an independent
// write-back, write-allocate LRU model: every hit, miss, line fill,
// write-back (and its order) and the NVM image must match, under access
// patterns that keep the hint busy and operations that invalidate,
// clean or replace the hinted lines behind its back.

type refLine struct {
	tag          uint64
	valid, dirty bool
	lastUse      uint64
	data         []byte
}

// refCache is the reference model: a textbook set-associative LRU cache
// over a byte-slice NVM image.
type refCache struct {
	lineSize int
	sets     [][]refLine
	clock    uint64
	nvm      []byte

	hits, misses, fills int64
	wbs                 []uint64 // write-back addresses, in order
}

func newRefCache(cfg Config, nvmSize int) *refCache {
	c := &refCache{lineSize: cfg.LineSize, nvm: make([]byte, nvmSize)}
	c.sets = make([][]refLine, cfg.CacheBytes/cfg.LineSize/cfg.Ways)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

func (c *refCache) lineOf(addr uint64) (uint64, []refLine) {
	tag := addr - addr%uint64(c.lineSize)
	return tag, c.sets[(tag/uint64(c.lineSize))%uint64(len(c.sets))]
}

func (c *refCache) writeBack(l *refLine, n int) {
	copy(c.nvm[l.tag:l.tag+uint64(n)], l.data[:n])
	c.wbs = append(c.wbs, l.tag)
	l.dirty = false
}

// line returns the cached line holding addr, filling it on a miss.
func (c *refCache) line(addr uint64) *refLine {
	tag, set := c.lineOf(addr)
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hits++
			set[i].lastUse = c.clock
			return &set[i]
		}
	}
	c.misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	l := &set[victim]
	if l.valid && l.dirty {
		c.writeBack(l, c.lineSize)
	}
	c.fills++
	*l = refLine{tag: tag, valid: true, lastUse: c.clock,
		data: slices.Clone(c.nvm[tag : tag+uint64(c.lineSize)])}
	return l
}

func (c *refCache) load(addr uint64, n int) []byte {
	l := c.line(addr)
	off := addr - l.tag
	return l.data[off : off+uint64(n)]
}

func (c *refCache) store(addr uint64, buf []byte) {
	l := c.line(addr)
	copy(l.data[addr-l.tag:], buf)
	l.dirty = true
}

func (c *refCache) flushAddr(addr uint64) {
	tag, set := c.lineOf(addr)
	for i := range set {
		if set[i].valid && set[i].dirty && set[i].tag == tag {
			c.writeBack(&set[i], c.lineSize)
		}
	}
}

func (c *refCache) hostWrite(addr uint64, buf []byte) {
	copy(c.nvm[addr:], buf)
	for a := addr - addr%uint64(c.lineSize); a < addr+uint64(len(buf)); a += uint64(c.lineSize) {
		tag, set := c.lineOf(a)
		for i := range set {
			if set[i].tag == tag {
				set[i].valid, set[i].dirty = false, false
			}
		}
	}
}

// dirty lists the dirty lines in (set, way) order.
func (c *refCache) dirty() []*refLine {
	var out []*refLine
	for s := range c.sets {
		for w := range c.sets[s] {
			if l := &c.sets[s][w]; l.valid && l.dirty {
				out = append(out, l)
			}
		}
	}
	return out
}

func (c *refCache) flushAll() {
	for _, l := range c.dirty() {
		c.writeBack(l, c.lineSize)
	}
}

func (c *refCache) crash() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w].valid, c.sets[s][w].dirty = false, false
		}
	}
}

// partialCrash draws from rng exactly as the documented PartialCrash
// contract says: shuffle the dirty lines, then per line an evict draw,
// a torn draw and, for a torn line, its 8-byte-aligned cut.
func (c *refCache) partialCrash(rng *rand.Rand, p CrashProfile) {
	d := c.dirty()
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	for _, l := range d {
		if rng.Float64() >= p.EvictFrac {
			continue
		}
		if rng.Float64() < p.TornFrac {
			c.writeBack(l, (1+rng.Intn(c.lineSize/8-1))*8)
			continue
		}
		c.writeBack(l, c.lineSize)
	}
	c.crash()
}

func TestCacheMatchesLRUModel(t *testing.T) {
	configs := map[string]Config{
		"ways3":  {LineSize: 64, CacheBytes: 64 * 3 * 5, Ways: 3},
		"sets70": {LineSize: 64, CacheBytes: 64 * 2 * 70, Ways: 2},
	}
	for name, cfg := range configs {
		for _, pattern := range []string{"pingpong", "strided", "random"} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, pattern, seed), func(t *testing.T) {
					runLRUModel(t, cfg, pattern, seed)
				})
			}
		}
	}
}

func runLRUModel(t *testing.T, cfg Config, pattern string, seed int64) {
	m := MustNew(cfg)
	var wbs []uint64
	m.SetPersistObserver(func(ev PersistEvent) {
		if ev.Kind == EvWriteBack || ev.Kind == EvTornWriteBack {
			wbs = append(wbs, ev.Addr)
		}
	})
	ls := uint64(cfg.LineSize)
	numSets := uint64(cfg.CacheBytes / cfg.LineSize / cfg.Ways)
	r := m.Alloc("data", cfg.CacheBytes*4)
	ref := newRefCache(cfg, len(m.NVMImage()))
	lines := uint64(r.Size) / ls

	rng := rand.New(rand.NewSource(seed))
	// Ping-pong pairs and strides: same-set pairs and set-sized strides
	// fight over one set, other pairs and strides spread over the cache.
	pingA, pingB := r.Base, r.Base+numSets*ls
	if seed%2 == 0 {
		pingB = r.Base + 3*ls
	}
	strides := []uint64{ls, numSets * ls, 3*ls + 8, 7 * ls}
	var cursor, last uint64 = r.Base, r.Base
	nextAddr := func(step int) uint64 {
		switch pattern {
		case "pingpong":
			if step%2 == 0 {
				return pingA + uint64(rng.Intn(int(ls)/8))*8
			}
			return pingB + uint64(rng.Intn(int(ls)/8))*8
		case "strided":
			if step%64 == 0 {
				cursor = r.Base + uint64(rng.Intn(int(lines)))*ls
			}
			cursor += strides[(step/64)%len(strides)]
			if cursor+8 > r.End() {
				cursor = r.Base
			}
			return cursor &^ 7
		}
		return r.Base + uint64(rng.Intn(r.Size/8))*8
	}
	// sameSet returns the k-th other line of addr's set inside r.
	sameSet := func(addr uint64, k int) uint64 {
		a := addr - addr%ls + uint64(k)*numSets*ls
		for a+ls > r.End() {
			a -= numSets * ls * uint64(cfg.Ways+1)
		}
		return a
	}

	hintRefilled := 0
	var buf [8]byte
	for step := 0; step < 4000; step++ {
		op := rng.Intn(100)
		switch {
		case op < 45:
			last = nextAddr(step)
			binary.LittleEndian.PutUint64(buf[:], rng.Uint64())
			m.Store(AccessData, last, buf[:])
			ref.store(last, buf[:])
		case op < 85:
			last = nextAddr(step)
			got, _ := m.Load(AccessData, last, 8)
			if want := ref.load(last, 8); !bytes.Equal(got, want) {
				t.Fatalf("step %d: load %#x = %x, model %x", step, last, got, want)
			}
		case op < 88:
			// Evict the hinted line by filling its set with other tags,
			// then come back to it.
			hinted := m.mru[0]
			hintedTag := m.lines[hinted].tag
			for k := 1; k <= cfg.Ways; k++ {
				a := sameSet(last, k)
				m.Load(AccessData, a, 8)
				ref.load(a, 8)
			}
			if l := m.lines[hinted]; l.valid && l.tag != hintedTag {
				hintRefilled++
			}
			got, _ := m.Load(AccessData, last, 8)
			if want := ref.load(last, 8); !bytes.Equal(got, want) {
				t.Fatalf("step %d: reload %#x after eviction = %x, model %x", step, last, got, want)
			}
		case op < 91:
			// Overwrite the most recently used line from the host.
			binary.LittleEndian.PutUint64(buf[:], rng.Uint64())
			m.HostWrite(last, buf[:])
			ref.hostWrite(last, buf[:])
		case op < 94:
			m.FlushAddr(last)
			ref.flushAddr(last)
		case op < 96:
			m.FlushAll()
			ref.flushAll()
		case op < 98:
			m.Crash()
			ref.crash()
		default:
			p := CrashProfile{EvictFrac: 0.6, TornFrac: 0.3}
			crashSeed := rng.Int63()
			m.PartialCrash(rand.New(rand.NewSource(crashSeed)), p)
			ref.partialCrash(rand.New(rand.NewSource(crashSeed)), p)
		}
		s := m.Stats()
		if s.Hits != ref.hits || s.Misses != ref.misses || s.NVMLineReads != ref.fills {
			t.Fatalf("step %d (op %d): hits/misses/reads %d/%d/%d, model %d/%d/%d",
				step, op, s.Hits, s.Misses, s.NVMLineReads, ref.hits, ref.misses, ref.fills)
		}
		if !slices.Equal(wbs, ref.wbs) {
			t.Fatalf("step %d (op %d): write-backs %x, model %x", step, op, wbs, ref.wbs)
		}
		if !bytes.Equal(m.NVMImage(), ref.nvm) {
			t.Fatalf("step %d (op %d): NVM image diverges from the model", step, op)
		}
		wbs, ref.wbs = wbs[:0], ref.wbs[:0]
	}
	if s := m.Stats(); s.Hits == 0 || s.Misses == 0 || s.NVMLineWrites == 0 {
		t.Fatalf("run never exercised hits, misses and write-backs: %+v", s)
	}
	if hintRefilled == 0 {
		t.Fatal("no hinted line was evicted and its way refilled with another tag")
	}
}
