package target

import (
	"easig/internal/core"
	"easig/internal/memory"
	"easig/internal/physics"
)

// numSlots is the dispatcher period: the 1 ms interrupt cycles
// ms_slot_nbr through 0..6 and each time-critical module owns one slot.
const numSlots = 7

// Vars exposes the seven monitored signal variables of a node for
// tracing and direct memory experiments (cmd/arrest).
type Vars struct {
	SetValue  memory.Var16
	IsValue   memory.Var16
	I         memory.Var16
	PulsCnt   memory.Var16
	MsSlotNbr memory.Var16
	MsCnt     memory.Var16
	OutValue  memory.Var16
}

// link is the master-to-slave serial channel carrying the pressure set
// point. The master transmits in dispatcher slot 6; the slave latches
// the last received value every millisecond until it goes stale.
type link struct {
	val   uint16
	at    int64
	valid bool
}

// Node is one computer node of the arresting system: the master (drum 0,
// runs DIST_S and CALC and transmits the set point) or the slave (drum
// 1, receives the set point). All application state lives in the node's
// Memory.
type Node struct {
	master bool
	drum   int
	env    *physics.Env
	mem    *memory.Memory
	lnk    *link

	// The seven monitored signals (RAM words 0..6), their assertion
	// monitors and each monitor's previous accepted value s', held in
	// RAM because on the real target the assertion state lives in the
	// memory the fault injector corrupts; mons[k] is nil when the built
	// version omits EA k+1.
	sig  [NumEAs]memory.Var16
	mons [NumEAs]*core.Monitor
	prev [NumEAs]memory.Var16

	// Control state in RAM.
	massDial  memory.Var16
	pulsRaw   memory.Var16
	setTarget memory.Var16
	sp        memory.Var16
	ckpt      [numCheckpoint]memory.Var16

	// CALC background-process locals and canaries in the stack region.
	nodeCanary memory.Var16
	calcCanary memory.Var16
	pulsMark   memory.Var16
	msCntMark  memory.Var16
	vEst       memory.Var16

	placement Placement

	// dead latches a node crash (corrupted dispatcher canary or stack
	// pointer): control flow is lost and no module runs again — the
	// failure mode signal-level assertions cannot see. calcDead latches
	// a crash of only the CALC background process.
	dead     bool
	calcDead bool
}

// newNode allocates a node's memory, writes the boot image and builds
// the executable-assertion monitors the version enables.
func newNode(isMaster bool, drum int, env *physics.Env, lnk *link,
	version Version, sink core.DetectionSink, recovery core.RecoveryPolicy,
	placement Placement, massKg float64) (*Node, error) {

	mem, err := memory.New(
		memory.RegionSpec{Name: RegionRAM, Base: RAMBase, Size: RAMSize},
		memory.RegionSpec{Name: RegionStack, Base: StackBase, Size: StackSize},
	)
	if err != nil {
		return nil, err
	}
	n := &Node{
		master:    isMaster,
		drum:      drum,
		env:       env,
		mem:       mem,
		lnk:       lnk,
		placement: placement,
	}

	names := SignalNames()
	for k := 0; k < NumEAs; k++ {
		n.sig[k] = memory.MustBind(mem, names[k], uint16(addrSignals+2*k))
	}
	n.massDial = memory.MustBind(mem, "mass_dial", addrMassDial)
	n.pulsRaw = memory.MustBind(mem, "puls_raw", addrPulsRaw)
	n.setTarget = memory.MustBind(mem, "set_target", addrSetTarget)
	n.sp = memory.MustBind(mem, "sp", addrSP)
	for k := range n.ckpt {
		n.ckpt[k] = memory.MustBind(mem, "ckpt", uint16(addrCkpt+2*k))
	}
	n.nodeCanary = memory.MustBind(mem, "node_canary", addrNodeCanary)
	n.calcCanary = memory.MustBind(mem, "calc_canary", addrCalcCanary)
	n.pulsMark = memory.MustBind(mem, "puls_mark", addrPulsMark)
	n.msCntMark = memory.MustBind(mem, "mscnt_mark", addrMsCntMark)
	n.vEst = memory.MustBind(mem, "v_est", addrVEst)

	// Boot image: canaries, stack pointer, checkpoint table, the
	// operator's mass-dial setting, and the unused stack area filled
	// with the boot pattern. The dispatcher slot starts at 6 so the
	// first tick dispatches slot 0 (PRES_S samples the pressure before
	// V_REG first uses it).
	n.nodeCanary.Set(canaryMagic)
	n.calcCanary.Set(canaryMagic)
	n.sp.Set(spInit)
	n.sig[sigMsSlotNbr].Set(numSlots - 1)
	n.massDial.Set(uint16(massKg))
	for k, d := range ckptTable {
		n.ckpt[k].Set(d)
	}
	for a := uint32(bootFillFrom); a < uint32(StackBase)+StackSize; a++ {
		if err := mem.SetByteAt(uint16(a), bootFill); err != nil {
			return nil, err
		}
	}

	for k := 0; k < NumEAs; k++ {
		if !version.enables(k + 1) {
			continue
		}
		m, err := NewSignalMonitor(k, core.WithSink(sink), core.WithRecovery(recovery))
		if err != nil {
			return nil, err
		}
		n.mons[k] = m
		n.prev[k] = memory.MustBind(mem, names[k]+"'", uint16(addrPrevBase+2*k))
	}
	return n, nil
}

// Memory returns the node's injectable memory.
func (n *Node) Memory() *memory.Memory { return n.mem }

// Vars returns accessors for the monitored signals.
func (n *Node) Vars() Vars {
	return Vars{
		SetValue:  n.sig[sigSetValue],
		IsValue:   n.sig[sigIsValue],
		I:         n.sig[sigI],
		PulsCnt:   n.sig[sigPulsCnt],
		MsSlotNbr: n.sig[sigMsSlotNbr],
		MsCnt:     n.sig[sigMsCnt],
		OutValue:  n.sig[sigOutValue],
	}
}

// test runs the signal's executable assertion — when this version
// enables it — on the current in-memory value at its Table 4 test
// location against s' from RAM, stores the accepted value as the new
// s', writes any recovery back to the signal's RAM word and returns the
// accepted value. The order of the memory accesses (signal load, s'
// load, s' store, recovery store) is what the liveness pass relies on.
func (n *Node) test(sig int, now int64) int64 {
	s := int64(n.sig[sig].Get())
	m := n.mons[sig]
	if m == nil {
		return s
	}
	acc, viol := m.Check(now, int64(n.prev[sig].Get()), s)
	n.prev[sig].Set(uint16(acc))
	if viol != nil {
		n.sig[sig].Set(uint16(acc))
	}
	return acc
}

// tick is the node's 1 ms interrupt: CLOCK, the per-ms modules and the
// dispatched slot module.
func (n *Node) tick(now int64) {
	if n.dead {
		return
	}
	if n.nodeCanary.Get() != canaryMagic {
		n.dead = true
		return
	}

	// CLOCK: advance the millisecond counter and the dispatcher slot.
	// EA6 (mscnt) is tested in CALC; EA5 (ms_slot_nbr) here.
	n.sig[sigMsCnt].Add(1)
	n.sig[sigMsSlotNbr].Set((n.sig[sigMsSlotNbr].Get() + 1) % numSlots)
	slot := n.test(sigMsSlotNbr, now)

	if n.master {
		n.distS()
		n.calc(now)
	} else {
		n.rx(now)
	}

	n.dispatch(int(slot)%numSlots, now)
}

// distS is the rotation-sensor module: it accumulates sensor pulses
// (one per decimeter of cable) into pulscnt.
func (n *Node) distS() {
	raw := n.env.RotationPulses()
	if d := raw - n.pulsRaw.Get(); d != 0 {
		n.sig[sigPulsCnt].Add(d)
		n.pulsRaw.Set(raw)
	}
}

// calc is the master's background process: velocity estimation,
// checkpoint sequencing and the integer set-point control law. Its
// persistent locals live in the stack region; a corrupted CALC canary
// kills only this process.
func (n *Node) calc(now int64) {
	if n.calcDead {
		return
	}
	if n.calcCanary.Get() != canaryMagic {
		n.calcDead = true
		return
	}

	ms := uint16(n.test(sigMsCnt, now))
	puls := uint16(n.test(sigPulsCnt, now))
	i := n.test(sigI, now)

	// Velocity estimation: pulses per window of at least velWindowMs.
	// Implausible windows (counter corruption under VersionNone) are
	// skipped but still re-mark, so estimation can recover.
	if dms := ms - n.msCntMark.Get(); dms >= velWindowMs {
		if dpuls := puls - n.pulsMark.Get(); dms <= 8*velWindowMs && dpuls <= 4096 {
			n.vEst.Set(uint16(uint32(dpuls) * 1000 / uint32(dms)))
		}
		n.msCntMark.Set(ms)
		n.pulsMark.Set(puls)
	}

	// Checkpoint sequencing: advance i each time the cable pays out past
	// the next checkpoint distance. Reaching the first checkpoint arms
	// the brake program.
	if i >= 0 && i < numCheckpoint && puls >= n.ckpt[i].Get() {
		i++
		n.sig[sigI].Set(uint16(i))
	}

	// Control law: aim the deceleration so the aircraft stops at
	// stopTargetDm (a = v^2 / 2*remaining), clamped into the comfort/
	// structural band, then convert to pressure counts for the dialled
	// mass and slew-rate-limit the set point.
	var aDms int64
	if v := int64(n.vEst.Get()); i >= 1 && v > 0 {
		rem := stopTargetDm - int64(puls)
		if rem < 10 {
			aDms = maxDecelDms
		} else {
			aDms = clamp(v*v/(2*rem), minDecelDms, maxDecelDms)
		}
	}
	st := int64(n.massDial.Get()) * aDms / 1400
	if st > maxCommandCounts {
		st = maxCommandCounts
	}
	n.setTarget.Set(uint16(st))

	sv := int64(n.sig[sigSetValue].Get())
	sv += clamp(st-sv, -setSlewPerMs, setSlewPerMs)
	n.sig[sigSetValue].Set(uint16(sv))
	if n.placement == PlacementProducer {
		n.test(sigSetValue, now)
	}
}

// rx is the slave's link receiver: every millisecond it latches the last
// set point the master transmitted, unless the link has gone stale.
func (n *Node) rx(now int64) {
	if n.lnk.valid && now-n.lnk.at <= linkStaleMs {
		n.sig[sigSetValue].Set(n.lnk.val)
		if n.placement == PlacementProducer {
			n.test(sigSetValue, now)
		}
	}
}

// dispatch pushes the dispatcher frame onto the stack, runs the slot's
// module and pops the frame. A corrupted stack pointer makes the frame
// writes land elsewhere (or outside memory entirely); a frame that does
// not read back intact means the return context is gone and the node
// crashes. The push keeps one order of loads, address checks and
// stores — frame store, slot load, check, slot store, set-point load,
// check, set-point store — because a corrupted sp can overlap the
// signal words and the liveness pass sees every access.
func (n *Node) dispatch(slot int, now int64) {
	sp := n.sp.Get()
	frame := uint16(frameMagic | uint16(slot))
	w, ok := n.mem.Word(sp)
	if ok {
		w.Set(frame)
		slotNbr := n.sig[sigMsSlotNbr].Get()
		if w, ok = n.mem.Word(sp + 2); ok {
			w.Set(slotNbr)
			setValue := n.sig[sigSetValue].Get()
			if w, ok = n.mem.Word(sp + 4); ok {
				w.Set(setValue)
			}
		}
	}
	if !ok {
		n.dead = true
		return
	}
	n.sp.Set(sp + frameBytes)

	switch slot {
	case 0:
		n.presS(now)
	case 2:
		n.vReg(now)
	case 4:
		n.presA(now)
	case 6:
		if n.master {
			n.txLink(now)
		}
	}

	base := n.sp.Get() - frameBytes
	if w, ok = n.mem.Word(base); !ok || w.Get() != frame {
		n.dead = true
		return
	}
	n.sp.Set(base)
}

// presS samples the drum's pressure sensor into IsValue (slot 0).
func (n *Node) presS(now int64) {
	n.sig[sigIsValue].Set(n.env.ReadPressure(n.drum))
	if n.placement == PlacementProducer {
		n.test(sigIsValue, now)
	}
}

// vReg is the valve regulator (slot 2): it mixes the set point with a
// bounded proportional correction against the measured pressure and
// slews the valve command toward the mix — opening fast, closing slowly,
// as the hydraulics demand. EA1 and EA2 run here in the consumer
// placement.
func (n *Node) vReg(now int64) {
	var sv, iv int64
	if n.placement == PlacementConsumer {
		sv = n.test(sigSetValue, now)
		iv = n.test(sigIsValue, now)
	} else {
		sv = int64(n.sig[sigSetValue].Get())
		iv = int64(n.sig[sigIsValue].Get())
	}
	mix := clamp(sv+clamp((sv-iv)/4, -mixBoost, mixBoost), 0, maxCommandCounts)

	ov := int64(n.sig[sigOutValue].Get())
	ov += clamp(mix-ov, -valveClosePerSlot, valveOpenPerSlot)
	n.sig[sigOutValue].Set(uint16(ov))
	if n.placement == PlacementProducer {
		n.test(sigOutValue, now)
	}
}

// presA writes the valve command to the DAC (slot 4). EA7 runs here in
// the consumer placement.
func (n *Node) presA(now int64) {
	ov := int64(n.sig[sigOutValue].Get())
	if n.placement == PlacementConsumer {
		ov = n.test(sigOutValue, now)
	}
	n.env.CommandValve(n.drum, uint16(ov))
}

// txLink transmits the master's set point to the slave (slot 6).
func (n *Node) txLink(now int64) {
	n.lnk.val = n.sig[sigSetValue].Get()
	n.lnk.at = now
	n.lnk.valid = true
}

// clamp limits x into [lo, hi].
func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
