package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The maybe-dirty bitmap must mark the set of every dirty line, and every
// walk built on it must visit dirty lines in full-cache (set, way) order.
// These tests check both against brute-force scans of the whole cache.

// bruteDirty returns the tags of all valid dirty lines in (set, way)
// order by scanning every line, ignoring the bitmap.
func bruteDirty(m *Memory) []uint64 {
	var tags []uint64
	for i := range m.sets {
		for j := range m.sets[i].ways {
			if l := &m.sets[i].ways[j]; l.valid && l.dirty {
				tags = append(tags, l.tag)
			}
		}
	}
	return tags
}

// checkDirtyInvariant reports the first dirty line whose set is not
// marked, or a DirtyLines count that differs from the brute-force scan.
func checkDirtyInvariant(m *Memory) error {
	for i := range m.sets {
		marked := m.maybeDirty[i/64]&(1<<(i%64)) != 0
		for j := range m.sets[i].ways {
			if l := &m.sets[i].ways[j]; l.valid && l.dirty && !marked {
				return fmt.Errorf("set %d way %d holds dirty line %#x but is not marked", i, j, l.tag)
			}
		}
	}
	if got, want := m.DirtyLines(), len(bruteDirty(m)); got != want {
		return fmt.Errorf("DirtyLines = %d, brute-force scan finds %d", got, want)
	}
	return nil
}

// refPartialCrash is PartialCrash with its dirty lines collected by a
// brute-force scan, the reference for the shuffle input order.
func refPartialCrash(m *Memory, rng *rand.Rand, p CrashProfile) {
	var dirty []*line
	for _, tag := range bruteDirty(m) {
		dirty = append(dirty, m.lookupLine(m.setIndex(tag), tag))
	}
	rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
	for _, l := range dirty {
		if rng.Float64() >= p.EvictFrac {
			continue
		}
		if rng.Float64() < p.TornFrac {
			m.tornWriteBack(l, rng)
			continue
		}
		m.writeBack(l)
	}
	m.Crash()
}

// eventLog records persist events with copied payloads.
type eventLog struct{ evs []PersistEvent }

func (e *eventLog) record(ev PersistEvent) {
	ev.Data = append([]byte(nil), ev.Data...)
	e.evs = append(e.evs, ev)
}

// TestPropertyDirtyBitmap drives twin memories through the same seeded
// mix of cache, flush, host-write, crash and dirty-count operations, with
// the media fault process and a planted dropped write-back armed. The
// twin takes PartialCrash through refPartialCrash; both must stay
// byte-identical in NVM image and persist-event stream, and after every
// step the bitmap invariant must hold and FlushAll must emit write-backs
// in brute-force (set, way) order.
func TestPropertyDirtyBitmap(t *testing.T) {
	configs := map[string]Config{
		// 5 sets: not a power of two.
		"ways3": {LineSize: 64, CacheBytes: 64 * 3 * 5, Ways: 3},
		// 70 sets: the bitmap spans two words.
		"sets70": {LineSize: 64, CacheBytes: 64 * 2 * 70, Ways: 2},
	}
	for name, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			cfg.Fault = FaultConfig{Enabled: true, Seed: uint64(seed), TransientPerWrite: 0.05, StuckPerWrite: 0.02}
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				runDirtyBitmapProperty(t, cfg, seed)
			})
		}
	}
}

func runDirtyBitmapProperty(t *testing.T, cfg Config, seed int64) {
	mems := []*Memory{MustNew(cfg), MustNew(cfg)}
	logs := []*eventLog{{}, {}}
	var data, meta []Region
	for i, m := range mems {
		m.SetPersistObserver(logs[i].record)
		data = append(data, m.Alloc("data", cfg.CacheBytes*6))
		meta = append(meta, m.Alloc("meta", 3*cfg.LineSize+24))
	}
	words := data[0].Size / 8
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 3000; step++ {
		op := rng.Intn(100)
		idx := rng.Intn(words)
		v := rng.Uint64()
		arg := rng.Intn(8)
		crashSeed := rng.Int63()
		for i, m := range mems {
			switch {
			case op < 40:
				data[i].StoreU64(AccessData, idx, v)
			case op < 60:
				data[i].LoadU64(AccessData, idx)
			case op < 68:
				m.FlushAddr(data[i].Base + uint64(idx*8))
			case op < 74:
				// Overwrite host bytes across up to two lines, dirty or not.
				buf := make([]byte, 8*(1+arg*2))
				for k := 0; k < len(buf); k += 8 {
					binary.LittleEndian.PutUint64(buf[k:], v+uint64(k))
				}
				if off := idx * 8; off+len(buf) <= data[i].Size {
					m.HostWrite(data[i].Base+uint64(off), buf)
				}
			case op < 77:
				meta[i].HostZero()
			case op < 83:
				want := bruteDirty(m)
				start := len(logs[i].evs)
				if n := m.FlushAll(); n != len(want) {
					t.Fatalf("step %d: FlushAll = %d lines, brute-force scan finds %d", step, n, len(want))
				}
				var got []uint64
				for _, ev := range logs[i].evs[start:] {
					if ev.Kind != EvWriteBack {
						t.Fatalf("step %d: FlushAll emitted %v", step, ev.Kind)
					}
					got = append(got, ev.Addr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: FlushAll order %x, want (set, way) order %x", step, got, want)
				}
			case op < 86:
				m.Crash()
			case op < 91:
				p := CrashProfile{EvictFrac: 0.6, TornFrac: 0.3}
				if i == 0 {
					m.PartialCrash(rand.New(rand.NewSource(crashSeed)), p)
				} else {
					refPartialCrash(m, rand.New(rand.NewSource(crashSeed)), p)
				}
			case op < 98:
				if n, want := m.DirtyLines(), len(bruteDirty(m)); n != want {
					t.Fatalf("step %d: DirtyLines = %d, brute-force scan finds %d", step, n, want)
				}
			default:
				m.PlantDropWriteBack(1 + arg)
			}
			if err := checkDirtyInvariant(m); err != nil {
				t.Fatalf("step %d (op %d) memory %d: %v", step, op, i, err)
			}
		}
		if !bytes.Equal(mems[0].NVMImage(), mems[1].NVMImage()) {
			t.Fatalf("step %d (op %d): NVM images diverge from the brute-force reference", step, op)
		}
		if !reflect.DeepEqual(logs[0].evs, logs[1].evs) {
			t.Fatalf("step %d (op %d): persist events diverge from the brute-force reference", step, op)
		}
		logs[0].evs, logs[1].evs = logs[0].evs[:0], logs[1].evs[:0]
	}
	if mems[0].Stats().NVMLineWrites == 0 || mems[0].MediaStats().Writes == 0 {
		t.Fatal("property run never wrote a line back")
	}
}

// TestDirtyInvariantCatchesUnmarkedSet forges a dirty line in a set the
// bitmap does not mark: the bitmap walk misses it, and the brute-force
// check must say so.
func TestDirtyInvariantCatchesUnmarkedSet(t *testing.T) {
	m := MustNew(Config{LineSize: 64, CacheBytes: 64 * 2 * 70, Ways: 2})
	r := m.Alloc("data", 64*70*4)
	r.StoreU64(AccessData, 0, 1)
	if err := checkDirtyInvariant(m); err != nil {
		t.Fatalf("honest store: %v", err)
	}
	forged := 67 // in the second bitmap word
	tag := r.Base
	for m.setIndex(tag) != forged {
		tag += 64
	}
	l := &m.sets[forged].ways[1]
	l.tag, l.valid, l.dirty, l.data = tag, true, true, make([]byte, 64)
	if err := checkDirtyInvariant(m); err == nil {
		t.Fatal("a dirty line in an unmarked set went undetected")
	}
	if got := m.DirtyLines(); got != 1 {
		t.Fatalf("DirtyLines = %d; the bitmap walk should skip the unmarked set", got)
	}
}
