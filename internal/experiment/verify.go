package experiment

import (
	"fmt"

	"easig/internal/inject"
	"easig/internal/physics"
)

// VerifyNominal checks the precondition of the paper's §3.4: "All test
// cases are such that if they are run on the target system without
// error injection, none of the error detection mechanisms report
// detection." It runs the fault-free grid against every software
// version and returns an error naming the first test case that
// detects, fails, or overruns the runway.
//
// Campaigns whose assertion parameters have drifted (for example after
// retuning the plant) fail here instead of producing silently polluted
// coverage numbers.
func VerifyNominal(cfg Config) error {
	cfg = cfg.withDefaults()
	cases := physics.Grid(cfg.Grid)
	for _, version := range cfg.Versions {
		for ci, tc := range cases {
			res, err := inject.Run(inject.RunConfig{
				TestCase:        tc,
				Version:         version,
				ObservationMs:   cfg.ObservationMs,
				Seed:            runSeed(cfg.Seed, ci),
				Recovery:        cfg.Recovery,
				Placement:       cfg.Placement,
				FullObservation: true,
			})
			if err != nil {
				return fmt.Errorf("experiment: verifying %v %+v: %w", version, tc, err)
			}
			switch {
			case res.Detected:
				return fmt.Errorf("experiment: nominal run %v %+v reported %d detections (first at %d ms)",
					version, tc, res.Detections, res.FirstDetectionMs)
			case res.Failed:
				return fmt.Errorf("experiment: nominal run %v %+v failed: %v", version, tc, res.Failure)
			case !res.Stopped:
				return fmt.Errorf("experiment: nominal run %v %+v did not arrest (travel %.1f m)",
					version, tc, res.DistanceM)
			}
		}
	}
	return nil
}
