package ironsafe

import (
	"testing"
)

// newChannelCluster is the running example over real monitor-keyed channels:
// one per query per node, the path that resumes.
func newChannelCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Mode: IronSafe, ChannelTransport: true, StorageNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetAccessPolicy("read :- sessionKeyIs(Ka)\nwrite :- sessionKeyIs(Ka)"); err != nil {
		t.Fatal(err)
	}
	for _, srv := range c.Storage { // every replica holds the table
		for _, sql := range []string{
			`CREATE TABLE flights (id INTEGER, pax VARCHAR(32), dest VARCHAR(2))`,
			`INSERT INTO flights VALUES (1, 'alice', 'PT'), (2, 'bob', 'DE'), (3, 'carol', 'PT')`,
		} {
			if _, err := srv.DB().Execute(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.refreshSchemas()
	return c
}

// ptQuery runs the example query and returns its stats.
func ptQuery(t *testing.T, c *Cluster) QueryStats {
	t.Helper()
	qr, err := c.NewSession("Ka").Query("SELECT pax FROM flights WHERE dest = 'PT'")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Result.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", qr.Result.NumRows())
	}
	return qr.Stats
}

func wantDials(t *testing.T, c *Cluster, full, resumed uint64) {
	t.Helper()
	if f, r := c.tickets.Exchanges(); f != full || r != resumed {
		t.Fatalf("host ran %d full / %d resumed handshakes, want %d / %d", f, r, full, resumed)
	}
}

// TestQueryChannelsResume: the first query's channel runs the X25519
// exchange, every later query — its own session, its own session key —
// resumes it, and a membership event cuts the chain: after kill, restart and
// readmission the first channel to the node is a full exchange, and it works.
func TestQueryChannelsResume(t *testing.T) {
	c := newChannelCluster(t, 1)
	ptQuery(t, c)
	wantDials(t, c, 1, 0)
	for i := 0; i < 3; i++ {
		if st := ptQuery(t, c); st.Failovers != 0 {
			t.Fatalf("resumed query failed over %d times", st.Failovers)
		}
	}
	wantDials(t, c, 1, 3)

	c.KillStorage("storage-01")
	if err := c.RestartStorage("storage-01", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReattestStorage("storage-01"); err != nil {
		t.Fatal(err)
	}
	if st := ptQuery(t, c); st.Failovers != 0 {
		t.Fatalf("first query after readmission failed over %d times", st.Failovers)
	}
	wantDials(t, c, 2, 3)
	ptQuery(t, c)
	wantDials(t, c, 2, 4)
}

// TestFailedResumptionIsReportedNotRedialled: a node that rebooted behind the
// cluster's back has lost the ticket the host still holds. The host's next
// dial is a resumption the node cannot complete; it fails as a handshake
// fails, the provider hears of it, and the query fails over to the replica —
// nothing dials the first node a second time on the quiet. The spent ticket
// is gone, so the next query's channel to that node is a full exchange.
func TestFailedResumptionIsReportedNotRedialled(t *testing.T) {
	c := newChannelCluster(t, 2)
	ptQuery(t, c)
	ptQuery(t, c)
	wantDials(t, c, 1, 1)

	if err := c.Storage[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if st := ptQuery(t, c); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1: the failed resumption is a reported failed attempt", st.Failovers)
	}
	wantDials(t, c, 2, 2) // storage-01's resumption failed; storage-02's first channel

	if st := ptQuery(t, c); st.Failovers != 0 {
		t.Fatalf("query after the failed resumption failed over %d times", st.Failovers)
	}
	wantDials(t, c, 3, 2) // storage-01 again, from scratch
}
