package vmm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bookmarkgc/internal/mem"
)

// The batched primitives of mem.Space (ReadWordPair, OpenWindow with
// loads from its page body, ChargeReads and WindowWrite, ZeroRange,
// CopyWords) promise to charge
// exactly what the per-access ReadWord/WriteWord sequence they replace
// would. Their batched paths only run on a clock-wired space, so the
// tests here drive two identical machines — real VMM, real clock, memory
// small enough to page — one through each primitive and one through the
// literal sequence, and require the machines to stay indistinguishable.

const (
	diffPages = 96 // address space of the test process; MinPhysBytes holds 64
	edgeWords = 8  // ops address the first and last edgeWords words of a page
)

// diffMachine is one side of the comparison. Its handler and clock events
// log themselves, so the firing order is part of what is compared.
type diffMachine struct {
	clock *Clock
	v     *VMM
	p     *Proc
	s     *mem.Space
	rng   *rand.Rand // drawn only inside clock events
	log   []string
	// windows counts OpenWindow calls and how many were granted, so a
	// test can tell that both the batched path and its refusal ran.
	windows, granted int
}

func newDiffMachine(seed int64) *diffMachine {
	m := &diffMachine{clock: NewClock(), rng: rand.New(rand.NewSource(seed))}
	m.v = New(m.clock, MinPhysBytes, DefaultCosts())
	m.p = m.v.NewProc("diff", diffPages*mem.PageSize)
	m.s = m.p.Space()
	m.p.Register(m)
	return m
}

func (m *diffMachine) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf("%v ", m.clock.Now())+fmt.Sprintf(format, args...))
}

func (m *diffMachine) EvictionScheduled(pg mem.PageID) { m.logf("evict notice %d", pg) }
func (m *diffMachine) PageReloaded(pg mem.PageID, wasEvicted bool) {
	m.logf("reload %d %v", pg, wasEvicted)
}

// edgeAddr picks a word at either end of a random page, so that short
// ranges cross page boundaries and events and ops meet on the same words.
func edgeAddr(rng *rand.Rand) mem.Addr {
	w := rng.Intn(2 * edgeWords)
	if w >= edgeWords {
		w += mem.WordsPage - 2*edgeWords
	}
	return mem.PageAddr(mem.PageID(1+rng.Intn(diffPages-1))) + mem.Addr(w)*mem.WordSize
}

// perturb is what a clock event does to the machine: rewrite a word,
// protect or surrender a page, or move the pressure — everything a real
// handler could do between two accesses of a batch.
func (m *diffMachine) perturb(a mem.Addr) {
	switch m.rng.Intn(6) {
	case 0, 1:
		m.s.WriteWord(a, m.s.ReadWord(a)+1)
	case 2:
		m.p.Protect(a.Page())
	case 3:
		m.p.Relinquish([]mem.PageID{a.Page()})
	case 4:
		if m.v.PinnedFrames() < 24 {
			m.v.Pin(8)
		} else {
			m.v.Unpin(16)
		}
	case 5:
		m.p.Discard(a.Page())
	}
}

// armRecurring schedules the background event: it perturbs a random word
// and re-arms itself after a delay short enough to land inside windows.
func (m *diffMachine) armRecurring(at time.Duration) {
	m.clock.Schedule(at, func() {
		m.logf("recurring event")
		m.perturb(edgeAddr(m.rng))
		m.armRecurring(m.clock.Now() + time.Duration(1+m.rng.Intn(700)))
	})
}

// armOneShot schedules an event aimed at the word the next op reads: it
// rewrites the word (a batch that reused a stale value would show) and
// then perturbs its page.
func (m *diffMachine) armOneShot(at time.Duration, a mem.Addr) {
	m.clock.Schedule(at, func() {
		m.logf("one-shot event on %#x", a)
		m.s.WriteWord(a, m.s.ReadWord(a)+1)
		m.perturb(a)
	})
}

type diffKind int

const (
	opPair   diffKind = iota // ReadWordPair
	opWindow                 // OpenWindow(n), k reads made
	opRMW                    // OpenWindow(3), read, read, WindowWrite: the mark bit
	opWork                   // OpenWindow(3 or 6), header, header, datum [header, header, WindowWrite]: a mutator work step
	opZero                   // ZeroRange
	opCopy                   // CopyWords
	opWrite                  // WriteWord on both sides (seeds data)
	numDiffKinds
)

// diffOp is one step, generated once and applied to both machines.
type diffOp struct {
	kind diffKind
	a    mem.Addr // target (destination of a copy; header word of a work step)
	src  mem.Addr // source of a copy; datum a work step reads, on a's page
	dst  mem.Addr // datum a work step writes, on a's page
	n, k int      // window length and reads made; bytes for zero and copy
	v    uint64
}

func (op diffOp) String() string {
	return fmt.Sprintf("{kind %d a %#x src %#x dst %#x n %d k %d}", op.kind, op.a, op.src, op.dst, op.n, op.k)
}

// batched runs op through the primitive under test and returns every
// value it observed.
func (m *diffMachine) batched(op diffOp) []uint64 {
	s := m.s
	switch op.kind {
	case opPair:
		v1, v2 := s.ReadWordPair(op.a)
		return []uint64{v1, v2}
	case opWindow:
		m.windows++
		if body, ok := s.OpenWindow(op.a, op.n); ok {
			m.granted++
			seen := []uint64{mem.BodyWord(body, op.a)}
			for len(seen) < op.k {
				s.ChargeReads(1)
				seen = append(seen, mem.BodyWord(body, op.a))
			}
			return seen
		}
	case opRMW:
		m.windows++
		if body, ok := s.OpenWindow(op.a, 3); ok {
			m.granted++
			v := mem.BodyWord(body, op.a)
			s.ChargeReads(1)
			s.WindowWrite(op.a, v+op.v)
			return []uint64{v, v}
		}
	case opWork:
		m.windows++
		if body, ok := s.OpenWindow(op.a, op.n); ok {
			m.granted++
			h := mem.BodyWord(body, op.a)
			s.ChargeReads(2)
			seen := []uint64{h, h, mem.BodyWord(body, op.src)}
			if op.n == 6 {
				s.ChargeReads(2)
				s.WindowWrite(op.dst, seen[2]+op.v)
				seen = append(seen, h, h)
			}
			return seen
		}
	case opZero:
		s.ZeroRange(op.a, uint64(op.n))
		return nil
	case opCopy:
		s.CopyWords(op.a, op.src, uint64(op.n))
		return nil
	}
	return m.literal(op) // a refused window: the caller's contract
}

// literal runs the per-access sequence op's primitive stands for.
func (m *diffMachine) literal(op diffOp) []uint64 {
	s := m.s
	var seen []uint64
	switch op.kind {
	case opPair:
		seen = append(seen, s.ReadWord(op.a), s.ReadWord(op.a))
	case opWindow:
		for i := 0; i < op.k; i++ {
			seen = append(seen, s.ReadWord(op.a))
		}
	case opRMW:
		seen = append(seen, s.ReadWord(op.a))
		w := s.ReadWord(op.a)
		seen = append(seen, w)
		s.WriteWord(op.a, w+op.v)
	case opWork:
		seen = append(seen, s.ReadWord(op.a), s.ReadWord(op.a), s.ReadWord(op.src))
		if op.n == 6 {
			seen = append(seen, s.ReadWord(op.a), s.ReadWord(op.a))
			s.WriteWord(op.dst, seen[2]+op.v)
		}
	case opZero:
		for a := op.a; a < op.a+mem.Addr(op.n); a += mem.WordSize {
			s.WriteWord(a, 0)
		}
	case opCopy:
		for i := mem.Addr(0); i < mem.Addr(op.n); i += mem.WordSize {
			s.WriteWord(op.a+i, s.ReadWord(op.src+i))
		}
	case opWrite:
		s.WriteWord(op.a, op.v)
	}
	return seen
}

// diffPair is the two machines in lockstep.
type diffPair struct {
	t        *testing.T
	fast, by *diffMachine // batched primitives; access by access
	logged   int          // log entries already compared
}

func newDiffPair(t *testing.T, seed int64) *diffPair {
	return &diffPair{t: t, fast: newDiffMachine(seed), by: newDiffMachine(seed)}
}

// both applies the same untested, literal action to the two machines.
func (d *diffPair) both(fn func(m *diffMachine)) {
	fn(d.fast)
	fn(d.by)
}

// step runs op both ways and requires every observable to agree.
func (d *diffPair) step(ctx string, op diffOp) {
	d.t.Helper()
	got, want := d.fast.batched(op), d.by.literal(op)
	if !slices.Equal(got, want) {
		d.t.Fatalf("%s %v: batched read %x, per-access read %x", ctx, op, got, want)
	}
	d.compare(fmt.Sprintf("%s %v", ctx, op))
}

func (d *diffPair) compare(ctx string) {
	d.t.Helper()
	a, b := d.fast, d.by
	if a.clock.Now() != b.clock.Now() {
		d.t.Fatalf("%s: clock %v batched, %v per access", ctx, a.clock.Now(), b.clock.Now())
	}
	if !slices.Equal(a.clock.Pending(), b.clock.Pending()) {
		d.t.Fatalf("%s: pending events %v batched, %v per access", ctx, a.clock.Pending(), b.clock.Pending())
	}
	if fa, fb := a.s.PageFlags(), b.s.PageFlags(); !bytes.Equal(fa, fb) {
		for pg := range fa {
			if fa[pg] != fb[pg] {
				d.t.Fatalf("%s: page %d flags %05b batched, %05b per access", ctx, pg, fa[pg], fb[pg])
			}
		}
	}
	if a.p.Stats() != b.p.Stats() || a.v.Stats() != b.v.Stats() {
		d.t.Fatalf("%s: stats differ\n batched:    %+v %+v\n per access: %+v %+v",
			ctx, a.p.Stats(), a.v.Stats(), b.p.Stats(), b.v.Stats())
	}
	if !slices.Equal(a.log[d.logged:], b.log[d.logged:]) {
		d.t.Fatalf("%s: events differ\n batched:    %q\n per access: %q", ctx, a.log[d.logged:], b.log[d.logged:])
	}
	d.logged = len(a.log)
	for pg := range a.s.PageFlags() {
		p := mem.PageID(pg)
		if a.s.HasBody(p) != b.s.HasBody(p) || a.s.HasRecord(p) != b.s.HasRecord(p) {
			d.t.Fatalf("%s: page %d holds body %v, record %v batched; body %v, record %v per access",
				ctx, pg, a.s.HasBody(p), a.s.HasRecord(p), b.s.HasBody(p), b.s.HasRecord(p))
		}
	}
	// The flags agree, and a page with none set is fresh or discarded and
	// reads as zero on both sides, so only the others can differ.
	for pg, f := range a.s.PageFlags() {
		if pg == 0 || f == 0 {
			continue
		}
		base := mem.PageAddr(mem.PageID(pg))
		for addr := base; addr < base+mem.PageSize; addr += mem.WordSize {
			if va, vb := a.s.PeekWord(addr), b.s.PeekWord(addr); va != vb {
				d.t.Fatalf("%s: word %#x holds %#x batched, %#x per access", ctx, addr, va, vb)
			}
		}
	}
}

// pageStates are the states a window can find its page in. A zero page
// is resident but was only ever read, so it has no backing body yet. An
// evicted page holds one nonzero word, which its stored record keeps
// (mem.Space.SwapOut); a dense evicted page has every word nonzero, too
// many for a record, so it keeps its body.
var pageStates = []string{"fresh", "zero", "resident", "evicted", "dense", "protected", "surrendered"}

// fillPage writes every word of page pg nonzero.
func (m *diffMachine) fillPage(pg mem.PageID) {
	for a := mem.PageAddr(pg); a < mem.PageAddr(pg+1); a += mem.WordSize {
		m.s.WriteWord(a, 0xd0<<32|uint64(a))
	}
}

// prepare brings page pg of both machines into state.
func (d *diffPair) prepare(pg mem.PageID, state string) {
	d.t.Helper()
	d.both(func(m *diffMachine) {
		if state == "fresh" {
			return
		}
		if state == "zero" {
			m.s.ReadWord(mem.PageAddr(pg))
			return
		}
		m.s.WriteWord(mem.PageAddr(pg), 0x5eed)
		switch state {
		case "evicted", "dense":
			if state == "dense" {
				m.fillPage(pg)
			}
			for i := 0; m.p.State(pg) != Evicted; i++ {
				if i == 4*diffPages {
					d.t.Fatalf("page %d survived four passes over the whole space", pg)
				}
				if other := mem.PageID(1 + i%(diffPages-1)); other != pg {
					m.s.WriteWord(mem.PageAddr(other), uint64(other))
				}
			}
			if dense := state == "dense"; m.s.HasRecord(pg) == dense || m.s.HasBody(pg) != dense {
				d.t.Fatalf("%s page %d evicted: record %v, body %v", state, pg, m.s.HasRecord(pg), m.s.HasBody(pg))
			}
		case "protected":
			m.p.Protect(pg)
		case "surrendered":
			m.p.Relinquish([]mem.PageID{pg})
		}
	})
}

// TestReadWindowChargesLikePerAccessReads is the table for the window
// primitive: every window length the runtime uses (1 to 3 for the mark
// pattern, up to 64 for a bitmap word), with an event due at every access
// of the window, just after it and not at all, on a page in every state.
func TestReadWindowChargesLikePerAccessReads(t *testing.T) {
	const pg = mem.PageID(40)
	a := mem.PageAddr(pg) + 5*mem.WordSize
	word := DefaultCosts().WordAccess
	for _, n := range []int{1, 2, 3, 64} {
		for _, state := range pageStates {
			// due counts word costs from the start of the window; -1 arms
			// no event. half lands the event between two accesses.
			for due := -1; due <= n+1; due++ {
				for _, half := range []time.Duration{0, word / 2} {
					d := newDiffPair(t, 1)
					d.prepare(pg, state)
					if due >= 0 {
						d.both(func(m *diffMachine) {
							m.armOneShot(m.clock.Now()+time.Duration(due)*word+half, a)
						})
					}
					ctx := fmt.Sprintf("n=%d %s due=%d+%v", n, state, due, half)
					d.step(ctx, diffOp{kind: opWindow, a: a, n: n, k: n})
					usable := state == "zero" || state == "resident" || state == "surrendered"
					clear := due < 0 || time.Duration(due)*word+half > time.Duration(n)*word
					if want := usable && clear; (d.fast.granted == 1) != want {
						t.Fatalf("%s: window granted = %v, want %v", ctx, !want, want)
					}
					// The window may stop early, and a second one follows
					// whatever the event left behind.
					d.both(func(m *diffMachine) { m.s.ReadWord(a) })
					d.step(ctx+" again", diffOp{kind: opWindow, a: a, n: n, k: 1 + n/2})
					d.step(ctx+" rmw", diffOp{kind: opRMW, a: a, v: 3})
				}
			}
		}
	}
}

// TestWorkWindowChargesLikePerAccessStep is the table for the in-window
// loads and write: the three- and six-access work step (header, header,
// datum; then header, header, write the datum back changed) with an
// event due at every access of the window, between two, just after it and
// not at all, aimed at the header, at the datum read and at the datum
// written, on a page in every state.
func TestWorkWindowChargesLikePerAccessStep(t *testing.T) {
	const pg = mem.PageID(40)
	hdr := mem.PageAddr(pg) + 5*mem.WordSize
	op := diffOp{kind: opWork, a: hdr, src: hdr + 4*mem.WordSize, dst: hdr + 300*mem.WordSize}
	word := DefaultCosts().WordAccess
	for _, n := range []int{3, 6} {
		for _, state := range pageStates {
			for due := -1; due <= n+1; due++ {
				for _, half := range []time.Duration{0, word / 2} {
					for _, aim := range []mem.Addr{op.a, op.src, op.dst} {
						d := newDiffPair(t, 1)
						d.prepare(pg, state)
						if due >= 0 {
							d.both(func(m *diffMachine) {
								m.armOneShot(m.clock.Now()+time.Duration(due)*word+half, aim)
							})
						}
						ctx := fmt.Sprintf("n=%d %s due=%d+%v aim=%#x", n, state, due, half, aim)
						// Writing zero keeps a bodiless page bodiless.
						op.n, op.v = n, -d.by.s.PeekWord(op.src)
						d.step(ctx, op)
						usable := state == "zero" || state == "resident" || state == "surrendered"
						clear := due < 0 || time.Duration(due)*word+half > time.Duration(n)*word
						if want := usable && clear; (d.fast.granted == 1) != want {
							t.Fatalf("%s: window granted = %v, want %v", ctx, !want, want)
						}
						// A second step follows whatever the event left behind.
						op.v = 7
						d.step(ctx+" again", op)
					}
				}
			}
		}
	}
}

// TestBatchedAccessesMatchPerAccessSequence drives one seeded random
// sequence over every batched primitive, with a recurring event and aimed
// one-shot events landing inside the batches and the machine paging.
// Every denseEvery-th page starts with every word nonzero, and one of
// them is refilled every refillEvery steps, so every op kind meets
// evicted pages of both kinds: sparse ones, stored as records, and
// dense ones, which keep their bodies.
func TestBatchedAccessesMatchPerAccessSequence(t *testing.T) {
	const denseEvery, refillEvery = 4, 10
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	rng := rand.New(rand.NewSource(20))
	d := newDiffPair(t, 21)
	d.both(func(m *diffMachine) {
		for pg := mem.PageID(denseEvery); pg < diffPages; pg += denseEvery {
			m.fillPage(pg)
		}
	})
	d.compare("dense pages written")
	d.both(func(m *diffMachine) { m.armRecurring(100) })
	var onRecord, onBody [numDiffKinds]int
	word := DefaultCosts().WordAccess
	var ran [numDiffKinds]int
	for i := 0; i < steps; i++ {
		op := diffOp{kind: diffKind(rng.Intn(int(numDiffKinds))), a: edgeAddr(rng), v: rng.Uint64()}
		switch op.kind {
		case opWindow:
			op.n = []int{1, 2, 3, 5, 17, 64}[rng.Intn(6)]
			op.k = 1 + rng.Intn(op.n)
		case opWork:
			op.n = 3 + 3*rng.Intn(2)
			op.src = op.a.PageBase() + mem.Addr(rng.Intn(mem.WordsPage))*mem.WordSize
			op.dst = op.a.PageBase() + mem.Addr(rng.Intn(mem.WordsPage))*mem.WordSize
		case opZero:
			op.n = mem.WordSize * (1 + rng.Intn(3*edgeWords))
		case opCopy:
			op.n = mem.WordSize * (1 + rng.Intn(3*edgeWords))
			op.src = edgeAddr(rng)
			if rng.Intn(3) == 0 { // source and destination on one page
				op.src = op.a.PageBase() + mem.Addr(rng.Intn(edgeWords))*mem.WordSize
			}
		}
		if end := op.a + mem.Addr(op.n); end > d.fast.s.Size() {
			op.a -= end - d.fast.s.Size()
		}
		if end := op.src + mem.Addr(op.n); end > d.fast.s.Size() {
			op.src -= end - d.fast.s.Size()
		}
		switch rng.Intn(8) {
		case 0:
			d.both(func(m *diffMachine) { m.p.Protect(op.a.Page()) })
		case 1:
			d.both(func(m *diffMachine) { m.p.Relinquish([]mem.PageID{op.a.Page()}) })
		case 2:
			d.both(func(m *diffMachine) { m.p.Discard(op.a.Page()) })
		case 3, 4:
			aim := op.a
			if op.kind == opCopy && rng.Intn(2) == 0 {
				aim = op.src
			}
			delay := time.Duration(rng.Intn(40))*word + time.Duration(rng.Intn(2))
			d.both(func(m *diffMachine) { m.armOneShot(m.clock.Now()+delay, aim) })
		}
		if i%refillEvery == 0 { // discards and zeroing thin the dense pages out
			pg := mem.PageID(denseEvery * (1 + i/refillEvery%(diffPages/denseEvery-1)))
			d.both(func(m *diffMachine) { m.fillPage(pg) })
			d.compare(fmt.Sprintf("step %d: page %d refilled", i, pg))
		}
		if pg := op.a.Page(); d.by.p.State(pg) == Evicted {
			if d.by.s.HasRecord(pg) {
				onRecord[op.kind]++
			} else if d.by.s.HasBody(pg) {
				onBody[op.kind]++
			}
		}
		d.step(fmt.Sprintf("step %d", i), op)
		ran[op.kind]++
	}
	for _, m := range []*diffMachine{d.fast, d.by} {
		if err := m.v.CheckAccounting(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.by.p.Stats()
	if st.Evictions == 0 || st.MajorFaults == 0 || st.ProtFaults == 0 || st.Discards == 0 {
		t.Fatalf("the sequence missed a page state: %+v", st)
	}
	for k, n := range ran {
		if n == 0 || onRecord[k] == 0 || onBody[k] == 0 {
			t.Fatalf("op kind %d ran %d times, %d on a stored page and %d on a dense evicted page; want each",
				k, n, onRecord[k], onBody[k])
		}
	}
	if g, w := d.fast.granted, d.fast.windows; g == 0 || g == w {
		t.Fatalf("%d of %d windows granted: want both outcomes", g, w)
	}
}
