package experiments

import (
	"strings"
	"testing"

	"neat/internal/faultinject"
)

func TestFaultMatrixShape(t *testing.T) {
	res := FaultMatrix(quick)
	rows := res.Tables[0].Rows
	if len(rows) != len(matrixKinds)*len(matrixComps) {
		t.Fatalf("rows=%d, want %d", len(rows), len(matrixKinds)*len(matrixComps))
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "unreachable") {
			t.Fatalf("recovery failed in some runs: %s", n)
		}
	}
	byCell := map[string]string{}
	for _, r := range rows {
		byCell[r[0]+"/"+r[1]] = r[6]
		if r[4] == "0" {
			t.Errorf("cell %s/%s: no failure detected", r[0], r[1])
		}
		t.Logf("matrix: %-6s %-8s reachable=%s detected=%s lat=%-10s %s",
			r[0], r[1], r[3], r[4], r[5], r[6])
	}
	// Hangs are invisible to a crash oracle; the watchdog must both catch
	// them and classify a TCP hang as connection-losing.
	if out := byCell["hang/tcp"]; !strings.Contains(out, "tcp lost") {
		t.Errorf("hang/tcp outcome %q, want tcp lost", out)
	}
	if out := byCell["hang/ip"]; !strings.Contains(out, "transparent") {
		t.Errorf("hang/ip outcome %q, want transparent", out)
	}
	// A crash storm on a replica component must converge to quarantine.
	for _, comp := range []string{"pf", "ip", "udp", "tcp"} {
		if out := byCell["storm/"+comp]; !strings.Contains(out, "quarantined") {
			t.Errorf("storm/%s outcome %q, want quarantined", comp, out)
		}
	}
	// Faults in the singleton services recover the whole plane.
	for _, kind := range []string{"crash", "hang"} {
		for _, comp := range []string{"driver", "syscall"} {
			if out := byCell[kind+"/"+comp]; !strings.Contains(out, "plane recovered") {
				t.Errorf("%s/%s outcome %q, want plane recovered", kind, comp, out)
			}
		}
	}
}

func TestFaultReplayShape(t *testing.T) {
	res := FaultReplay(quick, 3, faultinject.KindHang, "tcp")
	if len(res.Tables) != 2 {
		t.Fatalf("tables=%d, want 2", len(res.Tables))
	}
	got := map[string]string{}
	for _, r := range res.Tables[0].Rows {
		got[r[0]] = r[1]
	}
	if got["outcome"] != "tcp lost" {
		t.Errorf("replay outcome %q, want tcp lost", got["outcome"])
	}
	if got["failure detected"] != "true" {
		t.Errorf("replay did not detect the hang: %v", got)
	}
}
