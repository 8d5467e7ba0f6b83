package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

func TestServiceTableCalm(t *testing.T) {
	h := obs.ServiceHealth{QueueCap: 16, Workers: 2, Submitted: 3, Done: 3}
	out := ServiceTable(h)
	for _, want := range []string{"queue", "workers 2", "submitted 3", "no distress"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestServiceTableDistress(t *testing.T) {
	h := obs.ServiceHealth{
		QueueCap: 4, QueueDepth: 4, Workers: 1,
		Submitted: 8, Shed: 2, Done: 5, Failed: 2, Canceled: 1,
		WorkerRestarts: 3,
	}
	out := ServiceTable(h)
	for _, want := range []string{"distress", "shed 2", "3 worker restart"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no distress") {
		t.Fatalf("degraded service rendered calm:\n%s", out)
	}

	// Journal errors alone are distress too, and get their own line
	// under the header.
	out = ServiceTable(obs.ServiceHealth{QueueCap: 4, Workers: 1, Submitted: 3, Done: 3, JournalErrs: 2})
	if !strings.Contains(out, "distress:\n   2 journal write error(s)") {
		t.Fatalf("journal errors missing under the distress header:\n%s", out)
	}
}
