package hints

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateAcceptsKnownGoodValues(t *testing.T) {
	good := []struct {
		k Key
		v string
	}{
		{KeyPerfGoal, "latency"},
		{KeyPerfGoal, "throughput"},
		{KeyPerfGoal, "res_util"},
		{KeyConcurrency, "1"},
		{KeyConcurrency, "512"},
		{KeyPayloadSize, "131072"},
		{KeyPolling, "auto"},
		{KeyPolling, "busy"},
		{KeyPolling, "event"},
		{KeyNUMA, "bind"},
		{KeyTransport, "tcp"},
		{KeyPriority, "low"},
	}
	for _, c := range good {
		if err := Validate(c.k, c.v); err != nil {
			t.Errorf("Validate(%s,%s) = %v, want nil", c.k, c.v, err)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	bad := []struct {
		k Key
		v string
	}{
		{KeyPerfGoal, "speed"},
		{KeyConcurrency, "0"},
		{KeyConcurrency, "-3"},
		{KeyConcurrency, "many"},
		{KeyPayloadSize, "4KB"},
		{KeyPolling, "spin"},
		{Key("made_up"), "x"},
		{KeyNUMA, "yes"},
	}
	for _, c := range bad {
		if err := Validate(c.k, c.v); err == nil {
			t.Errorf("Validate(%s,%s) = nil, want error", c.k, c.v)
		}
	}
	// Polling has two disciplines (Figs. 4–5); a spin-then-sleep hybrid is not one.
	if err := Validate(KeyPolling, "adaptive"); err == nil || !strings.Contains(err.Error(), "polling=adaptive") {
		t.Errorf("Validate(polling,adaptive) = %v, want an error naming polling=adaptive", err)
	}
}

func TestSetAddRejectsInvalid(t *testing.T) {
	s := NewSet()
	if err := s.Add(SideShared, KeyPerfGoal, "warp"); err == nil {
		t.Fatal("invalid hint accepted")
	}
	if !s.Empty() {
		t.Fatal("invalid hint was recorded")
	}
	if err := s.Add(SideShared, KeyPerfGoal, "latency"); err != nil {
		t.Fatal(err)
	}
	if s.Empty() {
		t.Fatal("valid hint not recorded")
	}
}

func TestLateralOverride(t *testing.T) {
	s := NewSet()
	must(t, s.Add(SideShared, KeyPolling, "event"))
	must(t, s.Add(SideServer, KeyPolling, "busy"))
	if got := s.ForSide(SideServer)[KeyPolling]; got != "busy" {
		t.Fatalf("server side polling = %s, want busy (s_hint overrides hint)", got)
	}
	if got := s.ForSide(SideClient)[KeyPolling]; got != "event" {
		t.Fatalf("client side polling = %s, want event (shared)", got)
	}
}

func TestVerticalOverride(t *testing.T) {
	svc := NewSet()
	must(t, svc.Add(SideShared, KeyPerfGoal, "throughput"))
	must(t, svc.Add(SideShared, KeyConcurrency, "128"))
	fn := NewSet()
	must(t, fn.Add(SideShared, KeyPerfGoal, "latency"))

	g := Resolve(svc, fn, SideClient)
	if g[KeyPerfGoal] != "latency" {
		t.Fatalf("function hint did not override service: %v", g)
	}
	if g[KeyConcurrency] != "128" {
		t.Fatalf("service hint not inherited: %v", g)
	}
}

func TestResolvePrecedenceFullChain(t *testing.T) {
	// service shared < service side < function shared < function side
	svc := NewSet()
	must(t, svc.Add(SideShared, KeyPolling, "auto"))
	must(t, svc.Add(SideClient, KeyPolling, "event"))
	fn := NewSet()

	if got := Resolve(svc, fn, SideClient)[KeyPolling]; got != "event" {
		t.Fatalf("step2: %s", got)
	}
	must(t, fn.Add(SideShared, KeyPolling, "busy"))
	if got := Resolve(svc, fn, SideClient)[KeyPolling]; got != "busy" {
		t.Fatalf("step3: %s", got)
	}
	must(t, fn.Add(SideClient, KeyPolling, "event"))
	if got := Resolve(svc, fn, SideClient)[KeyPolling]; got != "event" {
		t.Fatalf("step4: %s", got)
	}
	// Server side unaffected by client-side function hint.
	if got := Resolve(svc, fn, SideServer)[KeyPolling]; got != "busy" {
		t.Fatalf("server leak: %s", got)
	}
}

func TestResolveNilSets(t *testing.T) {
	if g := Resolve(nil, nil, SideClient); len(g) != 0 {
		t.Fatalf("Resolve(nil,nil) = %v, want empty", g)
	}
	fn := NewSet()
	must(t, fn.Add(SideShared, KeyPerfGoal, "latency"))
	if g := Resolve(nil, fn, SideServer); g[KeyPerfGoal] != "latency" {
		t.Fatalf("nil service: %v", g)
	}
}

func TestTypeCheckDefaults(t *testing.T) {
	r := TypeCheck(Group{})
	if r.Goal != GoalThroughput || r.Polling != PollAuto {
		t.Fatalf("defaults = %+v", r)
	}
	if r.Concurrency != 0 || r.PayloadSize != 0 || r.NUMABind || r.UseTCP {
		t.Fatalf("defaults = %+v", r)
	}
}

func TestTypeCheckParsesAll(t *testing.T) {
	r := TypeCheck(Group{
		KeyPerfGoal:    "latency",
		KeyConcurrency: "64",
		KeyPayloadSize: "512",
		KeyPolling:     "busy",
		KeyNUMA:        "bind",
		KeyTransport:   "tcp",
		KeyPriority:    "low",
	})
	if r.Goal != GoalLatency || r.Concurrency != 64 || r.PayloadSize != 512 ||
		r.Polling != PollBusy || !r.NUMABind || !r.UseTCP {
		t.Fatalf("parsed = %+v", r)
	}
}

func TestSubscriptionClassification(t *testing.T) {
	cases := []struct {
		conc, cores int
		want        Subscription
	}{
		{1, 28, UnderSubscribed},
		{16, 28, UnderSubscribed},
		{28, 28, FullySubscribed},
		{29, 28, OverSubscribed},
		{512, 28, OverSubscribed},
		{0, 28, FullySubscribed}, // unknown
	}
	for _, c := range cases {
		r := Resolved{Concurrency: c.conc}
		if got := r.Subscription(c.cores); got != c.want {
			t.Errorf("Subscription(%d clients, %d cores) = %v, want %v", c.conc, c.cores, got, c.want)
		}
	}
}

func TestGroupStringDeterministic(t *testing.T) {
	g := Group{KeyPolling: "busy", KeyConcurrency: "4", KeyPerfGoal: "latency"}
	want := "concurrency=4, perf_goal=latency, polling=busy"
	if g.String() != want {
		t.Fatalf("String() = %q, want %q", g.String(), want)
	}
}

func TestSideString(t *testing.T) {
	if SideShared.String() != "hint" || SideServer.String() != "s_hint" || SideClient.String() != "c_hint" {
		t.Fatal("Side.String mismatch")
	}
}

// Property: Merge is right-biased and Resolve(service, function) always
// prefers function values for keys present in both.
func TestPropertyFunctionAlwaysWins(t *testing.T) {
	goals := []string{"latency", "throughput", "res_util"}
	f := func(si, fi uint8, side uint8) bool {
		svcGoal := goals[int(si)%3]
		fnGoal := goals[int(fi)%3]
		svc, fn := NewSet(), NewSet()
		if err := svc.Add(SideShared, KeyPerfGoal, svcGoal); err != nil {
			return false
		}
		if err := fn.Add(SideShared, KeyPerfGoal, fnGoal); err != nil {
			return false
		}
		g := Resolve(svc, fn, Side(int(side)%3))
		return g[KeyPerfGoal] == fnGoal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ForSide never invents keys — every key in the output exists in
// one of the source groups.
func TestPropertyNoInventedKeys(t *testing.T) {
	f := func(sharedConc, serverConc uint16) bool {
		s := NewSet()
		if sharedConc > 0 {
			if err := s.Add(SideShared, KeyConcurrency, itoa(int(sharedConc))); err != nil {
				return false
			}
		}
		if serverConc > 0 {
			if err := s.Add(SideServer, KeyConcurrency, itoa(int(serverConc))); err != nil {
				return false
			}
		}
		g := s.ForSide(SideServer)
		for k := range g {
			if _, ok := s.Shared[k]; ok {
				continue
			}
			if _, ok := s.Server[k]; ok {
				continue
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b strings.Builder
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b.WriteByte(digits[i])
	}
	return b.String()
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
