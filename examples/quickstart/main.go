// Quickstart: create the paper's co-processor, run one point
// multiplication with the full countermeasure stack, and run one
// private identification session between a tag and a reader.
package main

import (
	"fmt"
	"log"

	"medsec/internal/design"
	"medsec/internal/protocol"
	"medsec/internal/rng"
)

func main() {
	log.SetFlags(0)

	// The prototype chip: K-163 Montgomery ladder, d=4 MALU,
	// randomized projective coordinates, protected CMOS circuit,
	// 847.5 kHz at 1 V — the default point of the design space.
	pt := design.Defaults()
	pt.Seed = 42
	pt.TRNGSeed = 42
	st, err := pt.Build()
	if err != nil {
		log.Fatal(err)
	}
	chip, err := st.Chip()
	if err != nil {
		log.Fatal(err)
	}

	// One point multiplication k*G on the simulated hardware.
	k := chip.GenerateScalar()
	point, err := chip.ScalarMul(k, chip.Curve().Generator())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k*G = (%s..., %s...)\n", point.X.String()[:16], point.Y.String()[:16])
	fmt.Printf("cycles:  %d\n", chip.Last.Cycles)
	fmt.Printf("energy:  %.2f uJ   (paper: 5.1 uJ)\n", chip.Last.EnergyJ*1e6)
	fmt.Printf("power:   %.2f uW   (paper: 50.4 uW)\n", chip.Last.AvgPowerW*1e6)
	fmt.Printf("rate:    %.2f PM/s (paper: 9.8 PM/s)\n\n", 1/chip.Last.DurationS)

	// One Peeters-Hermans identification session (paper Fig. 2): the
	// tag's two point multiplications run on the simulated chip.
	curve := chip.Curve()
	src := rng.NewDRBG(7).Uint64
	readerMul := &protocol.SoftwareMultiplier{Curve: curve, Rand: src}
	reader, err := protocol.NewReader(curve, readerMul, src)
	if err != nil {
		log.Fatal(err)
	}
	tag, err := protocol.NewTag(curve, chip, src, reader.Pub)
	if err != nil {
		log.Fatal(err)
	}
	idx := reader.Register(tag.Pub)

	chip.ResetMeters()
	got, err := protocol.RunIdentification(tag, reader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identification: tag accepted as DB entry %d (registered as %d)\n", got, idx)
	fmt.Printf("tag work: %d point muls, %d modular mul, %d bits TX, %d bits RX\n",
		tag.Ledger.PointMuls, tag.Ledger.ModMuls, tag.Ledger.TxBits, tag.Ledger.RxBits)
	fmt.Printf("tag computation energy on chip: %.2f uJ\n", chip.Total.EnergyJ*1e6)
}
