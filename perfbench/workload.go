package main

import (
	"fmt"
	"math"
	"time"
)

// workload is one named traffic mix together with the server
// configuration it runs against.
type workload struct {
	id   int
	name string

	// Data set: live subjects with records each, and a disjoint pool of
	// churn subjects (churnRecords each) that only FORGETUSER touches.
	subjects     int
	records      int
	churnRecords int

	// Server flush policy (-timing, -aof-sync) and envelope encryption.
	timing   string
	aofSync  string
	envelope bool

	// Data path: dataConns closed-loop GGET/GPUT connections. A share of
	// writes carries shortTTL so the active expirer works in the window.
	dataConns    int
	longTTL      time.Duration
	shortTTL     time.Duration
	shortTTLFrac float64

	// Rights traffic. rightsRate > 0 runs an open loop on its own
	// connection during the window (FORGETUSER is forgetFrac of it).
	// Otherwise a closed-loop probe of GETUSER/EXPORTUSER requests runs
	// on probeConns connections for probeTime on the quiesced server after
	// the window, followed in traced runs by probeForgets FORGETUSERs.
	//
	// app-eventual probes on two connections: they keep both CPUs busy as
	// the data path did, while a single loop on an otherwise idle host gave
	// a median that swung between runs several times as much.
	// strict-realtime probes on one: every rights read waits for its audit
	// fsync, and with two loops the run's median fell into one of two
	// clusters about 70 us apart (interquartile range up to 0.34 of the
	// median over ten runs, against 0.06 with one loop).
	rightsRate   float64
	forgetFrac   float64
	probeConns   int
	probeTime    time.Duration
	probeForgets int
}

// auditMode is the audit trail's durability under the workload's timing.
func (w *workload) auditMode() string {
	if w.timing == "realtime" {
		return "every-op"
	}
	return "batched"
}

// churnSubjects sizes the churn pool so an open loop running for seconds
// never exhausts it (a quarter above the expected FORGETUSER count).
func (w *workload) churnSubjects(seconds float64) int {
	if w.rightsRate == 0 {
		return w.probeForgets
	}
	return int(math.Ceil(w.rightsRate*w.forgetFrac*seconds*1.25)) + 64
}

// serverArgs are the gdprkv-server flags for the workload.
func (w *workload) serverArgs(aofPath, auditPath string) []string {
	a := []string{
		"-addr", "127.0.0.1:0",
		"-compliant", "-capability", "full",
		"-timing", w.timing,
		"-aof", aofPath, "-aof-sync", w.aofSync,
		"-audit", auditPath,
	}
	if w.envelope {
		a = append(a, "-envelope-hex", envelopeKeyHex)
	}
	return a
}

// envelopeKeyHex is the fixed master key of the envelope workload.
const envelopeKeyHex = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

var workloads = []*workload{
	{
		id: 1, name: "app-eventual",
		subjects: 10000, records: 10, churnRecords: 10,
		timing: "eventual", aofSync: "everysec",
		dataConns: 2, longTTL: time.Hour,
		probeConns: 2, probeTime: 4 * time.Second, probeForgets: 8,
	},
	{
		id: 2, name: "strict-realtime",
		subjects: 10000, records: 10, churnRecords: 10,
		timing: "realtime", aofSync: "always",
		dataConns: 2, longTTL: time.Hour,
		probeConns: 1, probeTime: 4 * time.Second, probeForgets: 2,
	},
	{
		id: 3, name: "rights-churn",
		subjects: 2000, records: 100, churnRecords: 10,
		timing: "eventual", aofSync: "everysec", envelope: true,
		dataConns: 1, longTTL: time.Hour, shortTTL: 3 * time.Second, shortTTLFrac: 0.1,
		rightsRate: 200, forgetFrac: 0.2,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
