// Sensornet: the wireless-sensor-network scenario from the paper's
// introduction. A field of battery-powered sensors must keep a small
// "awake" subset active such that every sleeping sensor has an awake
// neighbor to wake it up — exactly a dominating set. The network topology
// is a cactus-like deployment along roads and junctions
// (K_{2,3}-minor-free, hence in every class C_t), and the sensors elect the
// awake set with the 3-round Theorem 4.4 algorithm, fully distributed.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sensornet: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))
	field := gen.RandomCactus(150, rng).Freeze()
	diam, _, _ := field.Diameter(graph.NewArena(), 0)
	fmt.Printf("deployment: %d sensors, %d links, diameter %d\n",
		field.N(), field.M(), diam)

	// Random (but distinct) hardware identifiers, as the LOCAL model
	// assumes O(log n)-bit IDs — nothing about the algorithm depends on
	// them being 0..n-1.
	ids := rng.Perm(field.N() * 4)[:field.N()]

	awake, stats, err := core.RunD2(field, ids)
	if err != nil {
		return err
	}
	fmt.Printf("awake set: %d sensors (%.1f%% duty cycle)\n",
		len(awake), 100*float64(len(awake))/float64(field.N()))
	fmt.Printf("wake-up coverage: %v\n", mds.IsDominatingSetCSR(field, awake))
	fmt.Printf("election cost: %d synchronous rounds, %d messages\n",
		stats.Rounds, stats.Messages)

	// Compare with the energy-optimal (centralized, offline) schedule.
	opt, err := mds.ExactMDS(field, mds.ExactOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("offline optimum: %d sensors awake; distributed overhead: %.2fx\n",
		len(opt), float64(len(awake))/float64(len(opt)))

	// A longer-lived deployment can afford Algorithm 1's larger radius for
	// a better duty cycle.
	res, err := core.Alg1CSR(field, core.PracticalParams(), core.PipelineOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1 alternative: %d sensors awake (%.2fx optimum), about %d rounds\n",
		len(res.S), float64(len(res.S))/float64(len(opt)), res.RoundsEstimate)
	return nil
}
