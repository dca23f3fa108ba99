package mem

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTryGrowDeniesPastLimit(t *testing.T) {
	b := New(100)
	r := b.Reserve("t")
	if !r.TryGrow(60) {
		t.Fatal("first grant within budget denied")
	}
	if !r.TryGrow(40) {
		t.Fatal("grant exactly at budget denied")
	}
	if r.TryGrow(1) {
		t.Fatal("grant past budget granted")
	}
	if got := b.Used(); got != 100 {
		t.Fatalf("used = %d, want 100", got)
	}
	st := b.Stats()
	if st.Denied != 1 {
		t.Fatalf("denied = %d, want 1", st.Denied)
	}
	if st.Overdraft != 0 {
		t.Fatalf("overdraft = %d, want 0", st.Overdraft)
	}
	r.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("used after release = %d, want 0", got)
	}
	if got := b.Peak(); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
}

func TestMustGrowOverdrafts(t *testing.T) {
	b := New(10)
	r := b.Reserve("t")
	r.MustGrow(25)
	if got := b.Used(); got != 25 {
		t.Fatalf("used = %d, want 25", got)
	}
	if got := b.Stats().Overdraft; got != 15 {
		t.Fatalf("overdraft = %d, want 15", got)
	}
	r.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
}

func TestUnlimitedBrokerTracksOnly(t *testing.T) {
	b := New(0)
	r := b.Reserve("t")
	if !r.TryGrow(1 << 40) {
		t.Fatal("unlimited broker denied a grant")
	}
	if got := b.Used(); got != 1<<40 {
		t.Fatalf("used = %d", got)
	}
	r.Release()
}

func TestNilReservationIsNoop(t *testing.T) {
	var b *Broker
	r := b.Reserve("t")
	if r != nil {
		t.Fatal("nil broker should hand out nil reservations")
	}
	if !r.TryGrow(10) {
		t.Fatal("nil reservation denied")
	}
	r.MustGrow(10)
	r.Shrink(5)
	r.Release()
	if r.Held() != 0 || r.Peak() != 0 {
		t.Fatal("nil reservation tracked something")
	}
}

func TestShrinkClampsToHeld(t *testing.T) {
	b := New(100)
	r := b.Reserve("t")
	r.MustGrow(30)
	r.Shrink(50)
	if r.Held() != 0 {
		t.Fatalf("held = %d, want 0", r.Held())
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
}

func TestChildCapsUnderParent(t *testing.T) {
	parent := New(100)
	child := parent.Child(40)
	r := child.Reserve("t")
	if !r.TryGrow(40) {
		t.Fatal("grant within child cap denied")
	}
	if r.TryGrow(1) {
		t.Fatal("grant past child cap granted")
	}
	if got := parent.Used(); got != 40 {
		t.Fatalf("parent used = %d, want 40", got)
	}
	// Exhaust the parent; a child grant within its own cap must still
	// fail and roll back cleanly.
	other := parent.Reserve("other")
	other.MustGrow(60)
	r.Shrink(40)
	if r.TryGrow(41) {
		t.Fatal("child granted past its cap")
	}
	if !r.TryGrow(40) {
		t.Fatal("refill within both budgets denied")
	}
	other.MustGrow(10) // parent now overdrafted
	r.Release()
	other.Release()
	if parent.Used() != 0 || child.Used() != 0 {
		t.Fatalf("leak: parent=%d child=%d", parent.Used(), child.Used())
	}
}

func TestChildDeniedByParent(t *testing.T) {
	parent := New(50)
	child := parent.Child(0) // no own cap, parent still governs
	r := child.Reserve("t")
	if r.TryGrow(60) {
		t.Fatal("parent budget ignored")
	}
	if child.Used() != 0 || parent.Used() != 0 {
		t.Fatalf("denied grant left residue: parent=%d child=%d", parent.Used(), child.Used())
	}
}

// TestChildDenialsAndDeferralsReachParent: what a per-request child
// broker refuses or defers is counted on the database-wide broker too —
// once, whichever of the two said no.
func TestChildDenialsAndDeferralsReachParent(t *testing.T) {
	parent := New(100)
	child := parent.Child(40)
	r := child.Reserve("t")
	if r.TryGrow(41) {
		t.Fatal("grant past the child's cap")
	}
	if c, p := child.Stats().Denied, parent.Stats().Denied; c != 1 || p != 1 {
		t.Fatalf("denied by the child's cap: child %d, parent %d; want 1, 1", c, p)
	}
	other := parent.Reserve("other")
	other.MustGrow(90)
	if r.TryGrow(20) {
		t.Fatal("grant past the parent's budget")
	}
	if c, p := child.Stats().Denied, parent.Stats().Denied; c != 2 || p != 2 {
		t.Fatalf("denied by the parent's budget: child %d, parent %d; want 2, 2", c, p)
	}
	other.Release()

	finish := admitRunning(t, child, 40)
	admitted := make(chan struct{})
	go func() {
		release, err := child.Admit(context.Background(), 30)
		if err != nil {
			t.Error(err)
		}
		release()
		close(admitted)
	}()
	for child.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	finish()
	<-admitted
	cs, ps := child.Stats(), parent.Stats()
	if cs.Deferred != 1 || ps.Deferred != 1 || ps.DeferredFor != cs.DeferredFor || ps.DeferredFor <= 0 {
		t.Fatalf("deferred: child %d for %v, parent %d for %v; want 1 and 1 for the same wait",
			cs.Deferred, cs.DeferredFor, ps.Deferred, ps.DeferredFor)
	}
}

func TestAdmitFitsImmediately(t *testing.T) {
	b := New(100)
	release, err := b.Admit(context.Background(), 80)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Claimed != 80 || st.Admitted != 1 || st.Deferred != 0 {
		t.Fatalf("stats = %+v", st)
	}
	release()
	release() // idempotent
	if got := b.Stats().Claimed; got != 0 {
		t.Fatalf("claimed = %d, want 0", got)
	}
}

func TestAdmitIdleOversizeGranted(t *testing.T) {
	b := New(100)
	// A claim larger than the whole budget on an idle broker must not
	// wedge: execution spills to stay within budget.
	release, err := b.Admit(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
}

// TestAdmitIdleIgnoresStandingReservations: idle means no unreleased
// admission claim, not zero bytes in use. Reservations held outside any
// claim (a request's hoisted lookups, the result cache) are released by
// nobody a waiter could wait for, so an oversize claim beside them must
// be granted at once — and the next one must wait for that claim's
// release, not for the standing bytes.
func TestAdmitIdleIgnoresStandingReservations(t *testing.T) {
	b := New(100)
	standing := b.Reserve("lookups")
	standing.MustGrow(30)
	defer standing.Release()

	releaseFirst, err := b.Admit(context.Background(), 150)
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan func(), 1)
	go func() {
		release, err := b.Admit(context.Background(), 150)
		if err != nil {
			t.Error(err)
		}
		second <- release
	}()
	waitFor(t, func() bool { return b.Stats().Waiting == 1 })
	// Work that reserved and released its state under the first claim
	// is still unreleased work until the claim itself is released.
	r := b.Reserve("op")
	r.MustGrow(150)
	r.Release()
	select {
	case <-second:
		t.Fatal("second oversize claim granted while the first was unreleased")
	case <-time.After(20 * time.Millisecond):
	}
	releaseFirst()
	select {
	case release := <-second:
		release()
	case <-time.After(2 * time.Second):
		t.Fatal("oversize claim never granted beside a standing reservation")
	}
	if st := b.Stats(); st.Claimed != 0 || st.Waiting != 0 || st.Used != 30 {
		t.Fatalf("residue: %+v", st)
	}
}

// admitRunning models admitted work in flight: a granted claim of n
// bytes. The returned function ends the work.
func admitRunning(t *testing.T, b *Broker, n int64) (finish func()) {
	t.Helper()
	release, err := b.Admit(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return release
}

func TestAdmitDefersUntilRelease(t *testing.T) {
	b := New(100)
	finish := admitRunning(t, b, 90)
	admitted := make(chan struct{})
	go func() {
		release, err := b.Admit(context.Background(), 50)
		if err != nil {
			t.Error(err)
		}
		defer release()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("admitted while saturated")
	case <-time.After(20 * time.Millisecond):
	}
	finish()
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("never admitted after release")
	}
	if got := b.Stats().Deferred; got != 1 {
		t.Fatalf("deferred = %d, want 1", got)
	}
}

func TestAdmitContextCanceled(t *testing.T) {
	b := New(100)
	finish := admitRunning(t, b, 100)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := b.Admit(ctx, 10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finish()
	if st := b.Stats(); st.Used != 0 || st.Claimed != 0 || st.Waiting != 0 {
		t.Fatalf("residue: %+v", st)
	}
}

// TestAdmitFIFONoStarvation: an oversize claim queued behind running
// work must be granted before later small claims that would fit on
// their own — under continuous small-batch traffic a fit-whoever-races
// policy would defer the large claim forever.
func TestAdmitFIFONoStarvation(t *testing.T) {
	b := New(100)
	finish := admitRunning(t, b, 80)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	admit := func(name string, estimate int64) {
		defer wg.Done()
		release, err := b.Admit(context.Background(), estimate)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		release()
	}

	wg.Add(1)
	go admit("big", 150)
	waitFor(t, func() bool { return b.Stats().Waiting == 1 })
	// Small claims that would fit right now (80+10 <= 100) must still
	// queue behind the big one.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go admit("small", 10)
	}
	waitFor(t, func() bool { return b.Stats().Waiting == 5 })

	finish() // idle broker: the big claim is granted first
	wg.Wait()
	if len(order) != 5 || order[0] != "big" {
		t.Fatalf("grant order = %v, want big first", order)
	}
	st := b.Stats()
	if st.Claimed != 0 || st.Waiting != 0 {
		t.Fatalf("residue: %+v", st)
	}
	if st.Deferred != 5 {
		t.Fatalf("deferred = %d, want 5", st.Deferred)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNilClaimIsNoop: a nil broker admits every claim, and the claim's
// release is a safe no-op.
func TestNilClaimIsNoop(t *testing.T) {
	var b *Broker
	release, err := b.Admit(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
}

func TestConcurrentReservations(t *testing.T) {
	b := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := b.Reserve("w")
			for i := 0; i < 1000; i++ {
				if r.TryGrow(512) {
					r.Shrink(256)
				}
				r.MustGrow(64)
				r.Shrink(200)
			}
			r.Release()
		}()
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("used after all released = %d, want 0", got)
	}
}

func TestConcurrentAdmitAndWork(t *testing.T) {
	b := New(4096)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, err := b.Admit(context.Background(), 1024)
				if err != nil {
					t.Error(err)
					return
				}
				r := b.Reserve("w")
				r.MustGrow(512)
				r.Release()
				release()
			}
		}()
	}
	wg.Wait()
	st := b.Stats()
	if st.Used != 0 || st.Claimed != 0 {
		t.Fatalf("residue: %+v", st)
	}
}
