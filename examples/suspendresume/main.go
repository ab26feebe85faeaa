// Suspendresume: the I/O-interposition benefit the paper names alongside
// migration. A nested VM using DVH virtual-passthrough — with an armed
// virtual timer — is serialized to a byte stream, the stream is carried to
// a fresh host, and the VM resumes with its memory and virtual hardware
// intact: the timer fires on the destination. Device passthrough cannot do
// this at all; DVH can because its devices are software the host fully
// encapsulates.
package main

import (
	"fmt"
	"log"

	nvsim "repro"
)

func buildStack() *nvsim.Stack {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func main() {
	src := buildStack()
	l2 := src.Target

	// The nested VM does some work: memory content plus an armed timer.
	gm := l2.Memory()
	addr := l2.MustAllocPages(1)
	payload := []byte("state that must survive suspend/resume")
	if err := gm.Write(addr, payload); err != nil {
		log.Fatal(err)
	}
	deadline := uint64(src.World.Now()) + 5_000_000
	if _, err := src.World.Execute(l2.VCPUs[0], nvsim.ProgramTimer(deadline)); err != nil {
		log.Fatal(err)
	}

	blob, err := nvsim.Snapshot(l2, src.DVH)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspended %s: %.1f KiB snapshot (memory image + DVH virtual hardware state)\n",
		l2.Name, float64(len(blob))/1024)

	// Resume on a brand-new host machine.
	dst := buildStack()
	if err := nvsim.RestoreSnapshot(dst.Target, dst.DVH, blob); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if err := dst.Target.Memory().Read(addr, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed on %s: memory reads back %q\n", dst.Machine.Name, buf)

	if dst.Target.VCPUs[0].LAPIC.TSCDeadline() == 0 {
		log.Fatal("virtual timer lost in the snapshot")
	}
	dst.World.RunUntil(6_000_000)
	if dst.Target.VCPUs[0].LAPIC.HasPending() {
		fmt.Println("the armed virtual timer fired on the destination host — the")
		fmt.Println("nested VM's virtual hardware survived suspend/resume.")
	} else {
		log.Fatal("restored timer never fired")
	}
}
