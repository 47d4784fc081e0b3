package exp

import "testing"

func TestScalabilityShape(t *testing.T) {
	tb, err := Scalability(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != len(scalabilityClients) {
		t.Fatalf("scalability table has %d rows, want %d",
			tb.NumRows(), len(scalabilityClients))
	}
	// Every row measures clients * txPerClient transactions.
	for i, row := range tb.Rows() {
		wantClients := scalabilityClients[i]
		if got := cellFloat(t, row[0]); int(got) != wantClients {
			t.Fatalf("row %d clients = %v, want %d", i, got, wantClients)
		}
		tx := cellFloat(t, row[1])
		if int(tx) != wantClients*50 {
			t.Fatalf("row %d transactions = %v, want %d", i, tx, wantClients*50)
		}
		if tput := cellFloat(t, row[3]); tput <= 0 {
			t.Fatalf("row %d throughput = %v", i, tput)
		}
	}
	// With per-transaction think time, concurrent clients must overlap:
	// 8 clients have to deliver at least twice the 1-client throughput.
	rows := tb.Rows()
	speedup8 := cellFloat(t, rows[3][4])
	if speedup8 < 2 {
		t.Fatalf("8-client speedup = %v, want >= 2", speedup8)
	}
}
