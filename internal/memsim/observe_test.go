package memsim

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBitFlipUnderSnapshotFrozen: a media bit flip after SnapshotNVM
// lands in the durable image only. The checkpoint is a copy and keeps the
// pre-flip byte, and the cached copy of the line keeps its coherent
// value until a crash drops it.
func TestBitFlipUnderSnapshotFrozen(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)+100)
	}
	m.FlushAll() // every line clean and durable
	snap := m.SnapshotNVM()

	addr := r.Base + 4*7 // element 7
	before := ImageU32(snap, addr)
	m.FlipBit(addr, 3)

	if got := ImageU32(snap, addr); got != before {
		t.Errorf("snapshot leaked bit flip: read %#x, want frozen %#x", got, before)
	}
	if got := r.NVMU32(7); got != before^(1<<3) {
		t.Errorf("durable image missing flip: read %#x, want %#x", got, before^(1<<3))
	}
	if got := r.PeekU32(7); got != before {
		t.Errorf("cached line saw the media flip: read %#x, want %#x", got, before)
	}

	// After a crash the flip is what post-crash readers load.
	m.Crash()
	if got, _ := r.LoadU32(AccessData, 7); got != before^(1<<3) {
		t.Errorf("post-crash load = %#x, want flipped %#x", got, before^(1<<3))
	}
}

// TestBitFlipUnderSnapshotDirtyLine: the line was dirty when the durable
// image was captured, so the checkpoint holds its old durable bytes; a
// later flush and flip change only the live durable image.
func TestBitFlipUnderSnapshotDirtyLine(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	r.StoreU32(AccessData, 0, 0xdeadbeef) // dirty, not yet durable
	snap := m.SnapshotNVM()

	m.FlushAll()
	m.FlipBit(r.Base, 0)

	if got := ImageU32(snap, r.Base); got != 0 {
		t.Errorf("snapshot of dirty line = %#x, want its pre-flush durable 0", got)
	}
	if got := r.NVMU32(0); got != 0xdeadbeef^1 {
		t.Errorf("durable image = %#x, want flushed-then-flipped %#x", got, 0xdeadbeef^1)
	}
	if got := r.PeekU32(0); got != 0xdeadbeef {
		t.Errorf("coherent view = %#x, want the stored %#x", got, 0xdeadbeef)
	}
}

// TestTornWriteBackUnderSnapshotFrozen: torn write-backs mutate the
// durable array after the checkpoint and must leave the checkpoint as
// captured.
func TestTornWriteBackUnderSnapshotFrozen(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)*2654435761+1)
	}
	snap := m.SnapshotNVM()
	frozen := bytes.Clone(snap)
	rep := m.PartialCrash(rand.New(rand.NewSource(7)), CrashProfile{EvictFrac: 1, TornFrac: 1})
	if rep.Torn == 0 {
		t.Fatal("no torn write-back happened — test exercised no tear path")
	}
	if !bytes.Equal(snap, frozen) {
		t.Fatal("torn write-backs leaked into the checkpoint")
	}
	if bytes.Equal(m.NVMImage()[:len(snap)], snap) {
		t.Fatal("torn write-backs left the durable image unchanged")
	}
}

// TestFaultProcessUnderSnapshotFrozen extends the checkpoint × fault
// check to the online media-error model: write-backs whose bytes are
// perturbed by the seeded fault process (transient flips, fresh stuck-at
// cells) mutate the durable array and must leave the checkpoint as
// captured.
func TestFaultProcessUnderSnapshotFrozen(t *testing.T) {
	cfg := tinyConfig()
	cfg.Fault = FaultConfig{Enabled: true, Seed: 11, TransientPerWrite: 1, StuckPerWrite: 0.5}
	m := MustNew(cfg)
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)+7)
	}
	m.FlushAll() // faulted bytes land durably; coherent view unaffected
	snap := m.SnapshotNVM()
	frozen := bytes.Clone(snap)

	// Dirty every line again and force faulted write-backs after the
	// checkpoint.
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)*2654435761)
	}
	m.FlushAll()
	if !bytes.Equal(snap, frozen) {
		t.Fatal("faulted write-backs leaked into the checkpoint")
	}
	if st := m.MediaStats(); st.Transient == 0 {
		t.Fatal("fault process injected nothing — test exercised no fault path")
	}
}

// TestScrubAndStuckAtUnderSnapshotFrozen: scrub rewrites and planted
// stuck-at forcings go through the durable write path, so they change
// the live durable image but not a checkpoint taken before them.
func TestScrubAndStuckAtUnderSnapshotFrozen(t *testing.T) {
	cfg := tinyConfig()
	cfg.Fault = FaultConfig{Enabled: true, Seed: 3, TransientPerWrite: 1}
	m := MustNew(cfg)
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, 0x5a5a0000+uint32(i))
	}
	m.FlushAll() // every line now carries one transient flip
	snap := m.SnapshotNVM()
	frozen := bytes.Clone(snap)

	rep := m.Scrub() // heals the flips durably
	if rep.Healed == 0 {
		t.Fatal("scrub healed nothing — test exercised no repair path")
	}
	m.PlantStuckAt(r.Base+5, 6, 1) // forces a durable byte immediately
	if !bytes.Equal(snap, frozen) {
		t.Fatal("scrub or stuck-at planting leaked into the checkpoint")
	}

	// Durable readers see the healed + pinned bytes: word 1
	// holds the healed value plus the stuck-at bit (byte 5, bit 6 — bit 14
	// of the word).
	m.Crash()
	want1 := uint32(0x5a5a0001) | 1<<14
	if got, _ := r.LoadU32(AccessData, 1); got != want1 {
		t.Errorf("post-crash word 1 = %#x, want healed+pinned %#x", got, want1)
	}
}

// TestPersistObserverStream checks that the observer sees every durable
// mutation with the bytes that actually landed: a shadow image replayed
// from events alone must equal the real durable image.
func TestPersistObserverStream(t *testing.T) {
	m := MustNew(tinyConfig())
	shadow := make([]byte, 0)
	grow := func(end uint64) {
		for uint64(len(shadow)) < end {
			shadow = append(shadow, 0)
		}
	}
	crashes := 0
	m.SetPersistObserver(func(ev PersistEvent) {
		switch ev.Kind {
		case EvWriteBack, EvTornWriteBack, EvHostWrite:
			grow(ev.Addr + uint64(len(ev.Data)))
			copy(shadow[ev.Addr:], ev.Data)
		case EvBitFlip:
			grow(ev.Addr + 1)
			shadow[ev.Addr] ^= 1 << ev.Bit
		case EvRestore:
			shadow = append(shadow[:0], ev.Data...)
		case EvCrash:
			crashes++
		}
	})

	r := m.Alloc("data", 512)
	for i := 0; i < 128; i++ {
		r.StoreU32(AccessData, i, uint32(i)^0x5a5a)
	}
	m.FlushAddr(r.Base)
	r.HostWriteU64s([]uint64{1, 2, 3})
	m.InjectBitFlips(rand.New(rand.NewSource(3)), 5)
	m.PartialCrash(rand.New(rand.NewSource(9)), CrashProfile{EvictFrac: 0.7, TornFrac: 0.5})

	img := m.NVMImage()
	grow(uint64(len(img)))
	if len(shadow) > len(img) {
		t.Fatalf("shadow grew past the durable image: %d > %d", len(shadow), len(img))
	}
	if !bytes.Equal(shadow, img[:len(shadow)]) {
		t.Error("event-replayed shadow diverges from durable image")
	}
	if crashes != 1 {
		t.Errorf("observed %d crash events, want 1", crashes)
	}

	snap := m.SnapshotNVM()
	m.HostWrite(r.Base, []byte{0xff, 0xff})
	m.RestoreNVM(snap)
	if !bytes.Equal(shadow, m.NVMImage()[:len(shadow)]) {
		t.Error("shadow diverges after restore")
	}
}

// TestPlantDropWriteBack verifies the planted persistency bug: the nth
// write-back is acknowledged (line clean, eviction observed, traffic
// counted) but its bytes never reach NVM — and that the observer-driven
// shadow therefore diverges from the durable image, which is exactly the
// signal the model checker keys on.
func TestPlantDropWriteBack(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 128)
	r.StoreU32(AccessData, 0, 0x11111111)
	r.StoreU32(AccessData, 16, 0x22222222) // second line

	var wbs int
	m.SetPersistObserver(func(ev PersistEvent) {
		if ev.Kind == EvWriteBack {
			wbs++
		}
	})
	m.PlantDropWriteBack(1)
	m.FlushAddr(r.Base)      // dropped: acknowledged, never durable
	m.FlushAddr(r.Base + 64) // persists normally
	if m.DirtyLines() != 0 {
		t.Fatal("planted drop left dirty lines — it must acknowledge the eviction")
	}
	if wbs != 2 {
		t.Fatalf("observer saw %d write-backs, want 2 (the drop is silent)", wbs)
	}
	if got := r.NVMU32(0); got != 0 {
		t.Errorf("dropped write-back reached NVM: %#x", got)
	}
	if got := r.NVMU32(16); got != 0x22222222 {
		t.Errorf("second write-back lost: %#x", got)
	}

	// Disarmed: everything persists again.
	m.PlantDropWriteBack(0)
	r.StoreU32(AccessData, 0, 0x33333333)
	m.FlushAddr(r.Base)
	if got := r.NVMU32(0); got != 0x33333333 {
		t.Errorf("write-back after disarm lost: %#x", got)
	}
}
