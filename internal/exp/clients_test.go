package exp

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
)

var (
	clientsOnce  sync.Once
	clientsTable *report.Table
	clientsErr   error
)

// quickClients runs the clients experiment at Quick once and shares its
// table among the tests below.
func quickClients(t *testing.T) *report.Table {
	t.Helper()
	clientsOnce.Do(func() { clientsTable, clientsErr = Clients(quick) })
	if clientsErr != nil {
		t.Fatal(clientsErr)
	}
	return clientsTable
}

// TestScalabilityShape checks the sweep's rows: one per CLIENTN of the
// grid, in order, each with a positive throughput.
func TestScalabilityShape(t *testing.T) {
	tb := quickClients(t)
	if tb.NumRows() != len(clientsGrid) {
		t.Fatalf("clients table has %d rows, want %d", tb.NumRows(), len(clientsGrid))
	}
	for i, row := range tb.Rows() {
		clients := clientsGrid[i]
		if got := cellFloat(t, row[0]); int(got) != clients {
			t.Fatalf("row %d clients = %v, want %d", i, got, clients)
		}
		if tput := cellFloat(t, row[3]); tput <= 0 {
			t.Fatalf("row %d throughput = %v", i, tput)
		}
	}
}

// TestMultiClientCounts checks that transactions scale with the client
// count: every client runs the same fixed number of transactions.
func TestMultiClientCounts(t *testing.T) {
	tb := quickClients(t)
	perClient := quick.clientsTxPerClient()
	for i, row := range tb.Rows() {
		clients := clientsGrid[i]
		if tx := cellFloat(t, row[1]); int(tx) != clients*perClient {
			t.Fatalf("row %d transactions = %v, want %d", i, tx, clients*perClient)
		}
	}
}

func TestClientsShape(t *testing.T) {
	tb := quickClients(t)
	procs := runtime.GOMAXPROCS(0)
	for i, row := range tb.Rows() {
		clients := clientsGrid[i]
		// Both cells are printed to two decimals, so they agree within
		// one rounding step of each.
		speedup, eff := cellFloat(t, row[4]), cellFloat(t, row[5])
		if want := speedup / float64(min(clients, procs)); math.Abs(eff-want) > 0.0101 {
			t.Fatalf("row %d efficiency = %v, want speedup %v / min(%d, GOMAXPROCS %d) = %.3f",
				i, eff, speedup, clients, procs, want)
		}
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "think time 0") {
		t.Fatalf("first note does not name think time 0: %q", tb.Notes)
	}
}

// TestClientsOneClientRowMatchesRunPhase checks that the sweep's 1-client
// row measures the I/O of the recipe's own database: its mean I/Os per tx
// equal a plain RunPhase of the same phase and seed, from a cold cache, on
// a freshly generated database of the same parameters.
func TestClientsOneClientRowMatchesRunPhase(t *testing.T) {
	tb := quickClients(t)
	db, err := core.Generate(quick.mixedParams())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Shutdown(db.Store)
	db.Store.DropCache()
	r, err := core.NewRunner(db, nil).RunPhase("clients", quick.clientsTxPerClient(), 8191+quick.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tb.Rows()[0][6], report.F1(r.MeanIOsPerOp()); got != want {
		t.Fatalf("1-client row: %s mean I/Os per tx, RunPhase on a fresh database: %s", got, want)
	}
}
