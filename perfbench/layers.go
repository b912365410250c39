package main

import (
	"fmt"
	"time"

	"gpurel/internal/device"
	"gpurel/internal/funcsim"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
	"gpurel/internal/microfi"
	"gpurel/internal/sim"
	"gpurel/internal/softfi"
)

// cloneReps is how often each job image is cloned for device.clone_us.
const cloneReps = 5

// probe holds the set-up layer figures of the traced run. They come from
// calling each layer's public builders directly, around the same jobs the
// studies build: the plain and TMR job of every app of the workload.
type probe struct {
	microGolden, softGolden time.Duration
	simCycles               int64
	simTime                 time.Duration
	funcInstrs              int64
	funcTime                time.Duration
	clones                  int
	cloneTime               time.Duration
	imageBytes              int64
	jobs                    int
}

// probeLayers times harden.TMR, microfi.GoldenCheckpointed, softfi.Golden,
// a fault-free sim.Run and funcsim.Run, and Memory.Clone for every job.
func probeLayers(appNames []string, cfg gpu.Config, rec *recorder, parent int64) (probe, error) {
	var p probe
	for _, name := range appNames {
		app, err := kernels.ByName(name)
		if err != nil {
			return p, err
		}
		asp := rec.begin("app."+name, parent, 0)
		job := app.Build()
		sp := rec.begin("harden.TMR", asp.id, 0)
		tmr := harden.TMR(job)
		sp.end()
		for _, j := range []*device.Job{job, tmr} {
			if err := p.job(j, cfg, rec, asp.id); err != nil {
				return p, fmt.Errorf("%s: %w", j.Name, err)
			}
		}
		asp.end()
	}
	return p, nil
}

func (p *probe) job(j *device.Job, cfg gpu.Config, rec *recorder, parent int64) error {
	p.jobs++
	sp := rec.begin("microfi.GoldenCheckpointed", parent, 0)
	t := time.Now()
	if _, err := microfi.GoldenCheckpointed(j, cfg, checkpoint); err != nil {
		return err
	}
	p.microGolden += time.Since(t)
	sp.end()

	sp = rec.begin("softfi.Golden", parent, 0)
	t = time.Now()
	if _, err := softfi.Golden(j); err != nil {
		return err
	}
	p.softGolden += time.Since(t)
	sp.end()

	sp = rec.begin("sim.Run", parent, 0)
	t = time.Now()
	res := sim.Run(j, cfg, sim.Options{})
	p.simTime += time.Since(t)
	sp.end()
	if res.Err != nil {
		return res.Err
	}
	p.simCycles += res.Cycles

	sp = rec.begin("funcsim.Run", parent, 0)
	t = time.Now()
	fres := funcsim.Run(j, funcsim.Options{})
	p.funcTime += time.Since(t)
	sp.end()
	if fres.Err != nil {
		return fres.Err
	}
	p.funcInstrs += fres.DynInstrs

	sp = rec.begin("device.Memory.Clone", parent, 0)
	t = time.Now()
	for i := 0; i < cloneReps; i++ {
		j.Mem.Clone()
	}
	p.cloneTime += time.Since(t)
	sp.end()
	p.clones += cloneReps
	p.imageBytes += int64(j.Mem.Size())
	return nil
}
