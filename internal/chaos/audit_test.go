package chaos

import (
	"testing"

	"hatrpc/internal/hatkv"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// TestAuditFlagsBadLosses: the audit against an empty store, so every
// write is lost. A loss no crash rolled back past is unexplained, and lost
// writes naming more distinct txn ids than were rolled back violate the
// bound; lost writes sharing one rolled-back id do not.
func TestAuditFlagsBadLosses(t *testing.T) {
	rolledTo2 := []Crash{{At: 250_000, RolledBackTo: 2, LostTxns: 1}}
	for _, tc := range []struct {
		name        string
		crashes     []Crash
		txns        []uint64
		unexplained int
		violated    bool
	}{
		{"no crash", nil, []uint64{3}, 1, false},
		{"crash kept the txn", []Crash{{At: 250_000, RolledBackTo: 3, LostTxns: 1}}, []uint64{3}, 1, false},
		{"crash long before the ack", []Crash{{At: 1, RolledBackTo: 2, LostTxns: 1}}, []uint64{3}, 1, false},
		{"one group rolled back", rolledTo2, []uint64{3, 3, 3}, 0, false},
		{"two txns, one rolled back", rolledTo2, []uint64{3, 4}, 0, true},
	} {
		cl := simnet.NewCluster(sim.NewEnv(1), simnet.DefaultConfig())
		store, err := hatkv.NewStore(cl.Node(0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		store.LostTxns = 1
		res := &Result{Crashes: tc.crashes}
		for i, txn := range tc.txns {
			res.Writes = append(res.Writes, Write{Key: string(rune('a' + i)), Txn: txn, AckAt: 200_000})
		}
		audit(res, store)
		if res.Lost != len(tc.txns) || res.Unexplained != tc.unexplained || res.BoundViolated != tc.violated {
			t.Errorf("%s: lost %d unexplained %d bound violated %v, want %d, %d, %v",
				tc.name, res.Lost, res.Unexplained, res.BoundViolated, len(tc.txns), tc.unexplained, tc.violated)
		}
	}
}
