package webmail

import (
	"math"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func smallConfig() Config {
	return Config{Users: 50, InitialMessages: 10, MaxMessagesPerFolder: 40,
		AttachmentProb: 0.25, Seed: 3}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Users = 0
	if bad.Validate() == nil {
		t.Error("zero users accepted")
	}
	bad = DefaultConfig()
	bad.AttachmentProb = 2
	if bad.Validate() == nil {
		t.Error("probability 2 accepted")
	}
}

func TestStoreProvisioning(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Users() != 50 {
		t.Errorf("users = %d", s.Users())
	}
	for u := 0; u < s.Users(); u++ {
		if got := s.FolderLen(u, Inbox); got != 10 {
			t.Fatalf("user %d inbox = %d, want 10", u, got)
		}
	}
	if s.TotalBytes <= 0 {
		t.Error("empty spool")
	}
}

func TestStoreByteAccounting(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	recount := func() int64 {
		var total int64
		for u := range s.boxes {
			for f := Folder(0); f < numFolders; f++ {
				for _, m := range s.boxes[u].Folders[f] {
					total += int64(m.Bytes())
				}
			}
		}
		return total
	}
	if recount() != s.TotalBytes {
		t.Fatal("initial byte accounting wrong")
	}
	// Run sessions and re-verify.
	r := stats.NewRNG(9)
	sess := NewSession(s, 5)
	for i := 0; i < 2000; i++ {
		sess.Step(r)
	}
	if got := recount(); got != s.TotalBytes {
		t.Errorf("byte accounting drifted: recount %d vs tracked %d", got, s.TotalBytes)
	}
}

func TestFolderCapBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxMessagesPerFolder = 15
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(4)
	sess := NewSession(s, 0)
	for i := 0; i < 5000; i++ {
		sess.Step(r)
	}
	for u := 0; u < s.Users(); u++ {
		for f := Folder(0); f < numFolders; f++ {
			if got := s.FolderLen(u, f); got > 15 {
				t.Fatalf("user %d folder %v grew to %d", u, f, got)
			}
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s, 1)
	r := stats.NewRNG(5)
	w := sess.Step(r)
	if w.Action != Login || !sess.active {
		t.Fatalf("first step should log in, got %v", w.Action)
	}
	// Walk until logout happens, then the next step must be a login.
	for i := 0; i < 10000; i++ {
		w = sess.Step(r)
		if w.Action == Logout {
			if sess.active {
				t.Fatal("active after logout")
			}
			w = sess.Step(r)
			if w.Action != Login {
				t.Fatalf("step after logout = %v", w.Action)
			}
			return
		}
	}
	t.Fatal("no logout in 10000 steps")
}

func TestActionMixCoverage(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s, 2)
	r := stats.NewRNG(6)
	seen := map[Action]int{}
	for i := 0; i < 20000; i++ {
		seen[sess.Step(r).Action]++
	}
	for _, a := range []Action{Login, ListFolder, ReadMessage, Reply, Compose, Delete, Move, Search, Logout} {
		if seen[a] == 0 {
			t.Errorf("action %v never occurred", a)
		}
	}
	if seen[ReadMessage] < seen[Compose] {
		t.Error("reads should dominate composes in heavy-usage mix")
	}
}

func TestActionWorkNonNegative(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s, 3)
	r := stats.NewRNG(7)
	for i := 0; i < 5000; i++ {
		w := sess.Step(r)
		if w.CPUUnits < 0 || w.DiskOps < 0 || w.DiskReadBytes < 0 ||
			w.DiskWriteBytes < 0 || w.NetBytes < 0 {
			t.Fatalf("negative work: %+v", w)
		}
	}
}

func TestComposeDeliversToRecipient(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 2
	cfg.InitialMessages = 0
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s, 0)
	r := stats.NewRNG(8)
	sess.Step(r) // login
	before := s.FolderLen(0, Inbox) + s.FolderLen(1, Inbox)
	sess.compose(r)
	after := s.FolderLen(0, Inbox) + s.FolderLen(1, Inbox)
	if after != before+1 {
		t.Errorf("compose did not deliver: %d -> %d", before, after)
	}
	if s.FolderLen(0, Sent) == 0 {
		t.Error("compose did not file a sent copy")
	}
}

func TestEngineSampleMeansMatchProfile(t *testing.T) {
	prof := workload.WebmailProfile()
	e, err := New(smallConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(11)
	var cpu, net stats.Summary
	for i := 0; i < 6000; i++ {
		req := e.Sample(r)
		cpu.Add(req.CPURefSec)
		net.Add(req.NetBytes)
	}
	if m := cpu.Mean(); math.Abs(m-prof.CPURefSec)/prof.CPURefSec > 0.2 {
		t.Errorf("CPU mean %g vs profile %g", m, prof.CPURefSec)
	}
	if m := net.Mean(); math.Abs(m-prof.NetBytes)/prof.NetBytes > 0.25 {
		t.Errorf("net mean %g vs profile %g", m, prof.NetBytes)
	}
}

func TestTracePagesWithinFootprint(t *testing.T) {
	e, err := New(smallConfig(), workload.WebmailProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(12)
	n := 0
	for i := 0; i < 500; i++ {
		e.TracePages(r, func(page int64, write bool) {
			if page < 0 || page >= e.totalPages {
				t.Fatalf("page %d outside footprint %d", page, e.totalPages)
			}
			n++
		})
	}
	if n == 0 {
		t.Fatal("no pages traced")
	}
}

func TestSearchAction(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(s, 7)
	r := stats.NewRNG(21)
	sess.Step(r) // login
	w := sess.search(r)
	if w.Action != Search {
		t.Fatalf("action = %v", w.Action)
	}
	if w.DiskReadBytes <= 0 || w.CPUUnits <= 5e3 {
		t.Errorf("search did no scanning: %+v", w)
	}
	// Search must be far more expensive than a folder listing.
	l := sess.list(r)
	if w.CPUUnits <= l.CPUUnits {
		t.Errorf("search (%g) not costlier than list (%g)", w.CPUUnits, l.CPUUnits)
	}
}

func TestMessagesCarryKeywords(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := s.boxes[0].Folders[Inbox][0]
	if len(m.Keywords) < 3 || len(m.Keywords) > 8 {
		t.Fatalf("keywords = %v", m.Keywords)
	}
	if !m.HasKeyword(m.Keywords[0]) {
		t.Error("HasKeyword missed an own keyword")
	}
	// A popular term should appear somewhere in the store.
	found := false
	for u := 0; u < s.Users() && !found; u++ {
		for _, msg := range s.boxes[u].Folders[Inbox] {
			if msg.HasKeyword(0) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("the most popular keyword appears nowhere — zipf broken?")
	}
}

// Property: sessions never corrupt folder bounds regardless of seed.
func TestQuickSessionInvariants(t *testing.T) {
	cfg := smallConfig()
	f := func(seed uint64) bool {
		s, err := NewStore(cfg)
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed)
		sess := NewSession(s, int(seed%uint64(cfg.Users)))
		for i := 0; i < 300; i++ {
			sess.Step(r)
		}
		for u := 0; u < s.Users(); u++ {
			for f := Folder(0); f < numFolders; f++ {
				if s.FolderLen(u, f) > cfg.MaxMessagesPerFolder {
					return false
				}
			}
		}
		return s.TotalBytes >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
