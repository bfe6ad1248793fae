package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// numVariants is how many packet-sim input variants a run cycles through;
// reference.json records the outputs of each.
const numVariants = 4

// refEpsilon is the ε of the tight solves whose bounds are recorded as the
// offline-solve references: OPT lies in [Lower, Upper].
const refEpsilon = 0.03

//go:embed reference.json
var referenceJSON []byte

// bracket bounds the optimum of one solve instance.
type bracket struct {
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// packetRef is one variant's recorded packet-sim outputs and exact work
// counts.
type packetRef struct {
	Netsim        map[string]fctSummary   `json:"netsim"`
	Flowsim       flowsimSummary          `json:"flowsim"`
	NetsimCounts  map[string]netsimCounts `json:"netsim_counts"`
	FlowsimCounts flowsimCounts           `json:"flowsim_counts"`
}

// referenceDoc is reference.json: a bracket per offline solve instance,
// and the packet-sim outputs and work counts per variant.
type referenceDoc struct {
	Offline map[string]bracket `json:"offline"`
	Packet  []packetRef        `json:"packet"`
}

var reference referenceDoc

func loadReference() error {
	if err := json.Unmarshal(referenceJSON, &reference); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if len(reference.Packet) != numVariants {
		return fmt.Errorf("reference.json: want %d packet-sim variants, have %d", numVariants, len(reference.Packet))
	}
	return nil
}

// recordReference recomputes the reference outputs and writes them as
// reference.json: tight-ε bounds for each offline solve instance, and each
// variant's packet-sim FCT summaries and work counts.
func recordReference(w io.Writer) error {
	doc := referenceDoc{Offline: map[string]bracket{}}
	in := buildOfflineInputs()
	for _, s := range append(in.solves, in.whatifBase) {
		res, _ := solveCold(s, refEpsilon)
		doc.Offline[s.name] = bracket{res.Throughput, res.UpperBound}
	}
	pin := buildPacketInputs()
	for v := 0; v < numVariants; v++ {
		pin.variant = v
		pr := packetRef{Netsim: map[string]fctSummary{}, NetsimCounts: map[string]netsimCounts{}}
		for i, s := range pin.setups {
			nr := runNetsim(pin, i)
			pr.Netsim[s.name], pr.NetsimCounts[s.name] = nr.summary, nr.counts
		}
		fr := runFlowsim(pin)
		pr.Flowsim, pr.FlowsimCounts = fr.summary, fr.counts
		doc.Packet = append(doc.Packet, pr)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
