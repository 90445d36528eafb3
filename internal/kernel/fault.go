package kernel

import (
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/trace"
)

// handleFault is the MMU's exception entry point. ctx is the faulting
// Thread (set by Access). hwFailed marks an HWDP miss bounced for an empty
// free page queue. ms is the miss's trace context (nil when tracing is
// disabled).
//
//hwdp:coldpath OS exception path — the software fallback the hardware miss path exists to avoid; microseconds of kernel time dwarf any allocation here
func (k *Kernel) handleFault(ctx any, as *mmu.AddressSpace, va pagetable.VAddr,
	write, hwFailed bool, ms *trace.Miss, done func()) {
	th, ok := ctx.(*Thread)
	if !ok || th == nil {
		panic("kernel: fault without thread context")
	}
	// The pipeline is no longer stalled: the CPU vectors into the kernel.
	th.endStall(k)

	p := k.byASID[as.ASID]
	vma := p.findVMA(va)
	if vma == nil {
		// Segfault: the MMU will report BadAddr on the retried walk.
		done()
		return
	}
	idx := vma.pageIndex(va)

	// Classify using the PTE (the handler reads it anyway for triage).
	var state pagetable.State = pagetable.StateNotPresentOS
	if e, found := as.Table.Lookup(va); found {
		state = e.State()
	}
	if state == pagetable.StateResident || state == pagetable.StateResidentUnsynced {
		// Raced with a concurrent fault that already mapped the page.
		ms.SetCause(trace.CauseOSMinor)
		done()
		return
	}

	if k.cfg.Scheme == SWDP && state == pagetable.StateNotPresentLBA && !hwFailed {
		k.swFault(th, as, va, vma, idx, ms, done)
		return
	}
	k.osFaultPath(th, as, va, vma, idx, hwFailed, ms, done)
}

// osFaultPath is the conventional OSDP page-fault handler: exception entry,
// VMA triage, page-cache lookup (minor) or full storage I/O with a context
// switch (major), then OS metadata and PTE updates — Figure 3's timeline.
func (k *Kernel) osFaultPath(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr,
	vma *VMA, idx int, hwFailed bool, ms *trace.Miss, done func()) {
	c := k.cfg.Costs
	hw := th.HW
	key := pcKey{vma.File, idx}
	k.kspan(ms, "exception-entry", hw, c.Exception+c.WalkInFault+c.HandlerEntry, func() {
		// Minor fault: the page is already resident in the page cache
		// (pages under writeback are still valid and mappable).
		if pg := k.lookupPage(vma.File, idx); pg != nil {
			k.stats.MinorFaults++
			ms.SetCause(trace.CauseOSMinor)
			k.kspan(ms, "minor-fault", hw, c.MinorFault, func() {
				k.finishMap(as, va, vma, pg)
				done()
			})
			return
		}
		// Anonymous first touch (no swapped-out content): zero-fill a
		// fresh frame without any I/O — the minor-fault path of real
		// kernels, and the fallback for bounced hardware zero-fills. The
		// fault holds the page lock like the major path: allocation can
		// park in the reclaim-retry loop, and a concurrent first-touch of
		// the same page must coalesce, not insert the page twice.
		if vma.Anon && !vma.swapped[idx] {
			k.stats.MinorFaults++
			ms.SetCause(trace.CauseOSMinor)
			if waiters, inflight := k.faultInflight[key]; inflight {
				k.faultInflight[key] = append(waiters, k.pageLockWaiter(ms, hw, as, va, vma, idx, done))
				return
			}
			k.faultInflight[key] = []func(){}
			k.allocFrame(hw, func(frame mem.FrameID) {
				k.kspan(ms, "page-alloc+pte-install", hw, c.PageAlloc+c.PTEInstallReturn, func() {
					finish := func() {
						waiters := k.faultInflight[key]
						delete(k.faultInflight, key)
						done()
						for _, w := range waiters {
							w()
						}
					}
					// While the allocation stalled, the SMU may have resolved
					// the page for another thread (its miss found a refilled
					// free queue after ours bounced). Installing over it would
					// leak the SMU's frame; yield to it instead.
					if e, found := as.Table.Lookup(va); found && e.Present() {
						if err := k.mem.Free(frame); err != nil {
							panic(err)
						}
						finish()
						return
					}
					pg := k.insertPage(vma.st, vma.File, idx, frame,
						mapping{as: as, va: va.PageBase(), vma: vma})
					k.finishMap(as, va, vma, pg)
					if !hwFailed {
						finish()
						return
					}
					// No device time to hide behind here: refill the free
					// page queue synchronously before returning to user.
					k.stats.FaultRefills++
					var total int
					for _, s := range k.smuList {
						total += k.refillSMU(s)
					}
					k.kspan(ms, "fault-queue-refill", hw, c.RefillPerFrame*sim.Time(total), finish)
				})
			})
			return
		}
		// Another thread is already reading this page in (the page-lock
		// serialization of real kernels): block until it finishes, then
		// take the minor-fault path.
		if waiters, inflight := k.faultInflight[key]; inflight {
			ms.SetCause(trace.CauseOSMinor)
			k.faultInflight[key] = append(waiters, k.pageLockWaiter(ms, hw, as, va, vma, idx, done))
			return
		}
		k.faultInflight[key] = []func(){}
		k.stats.MajorFaults++
		ms.SetCause(trace.CauseOSMajor)
		if hwFailed {
			k.stats.HWBounceFaults++
		}
		k.allocFrame(hw, func(frame mem.FrameID) {
			k.kspan(ms, "page-alloc+io-submit", hw, c.PageAlloc+c.IOSubmit, func() {
				blk, err := vma.st.fsys.Block(vma.File, idx)
				if err != nil {
					panic(err)
				}
				// The completion runs at interrupt time with the final
				// status (submitIORetry never calls it synchronously).
				completion := func(status uint16) {
					// Interrupt → block-layer completion → wake + schedule
					// in → metadata + PTE install → return to user.
					hw.AccountContextSwitch()
					k.kspan(ms, "irq+complete+wake", hw, c.InterruptDelivery+c.IOCompletion+c.WakeSchedule, func() {
						if status != nvme.StatusSuccess {
							// The read is unrecoverable even after block-layer
							// retries: SIGBUS the faulting thread. Waiters on
							// the page lock observe the missing page and fail
							// their walks too — nobody hangs.
							k.sigbus(th, as, va, frame, ms)
							waiters := k.faultInflight[key]
							delete(k.faultInflight, key)
							done()
							for _, w := range waiters {
								w()
							}
							return
						}
						k.kspan(ms, "metadata+pte-install", hw, c.MetadataUpdate+c.PTEInstallReturn, func() {
							finish := func() {
								waiters := k.faultInflight[key]
								delete(k.faultInflight, key)
								done()
								for _, w := range waiters {
									w()
								}
							}
							// The SMU may have resolved this page for another
							// thread while our I/O was in flight (its miss
							// found a refilled queue after ours bounced);
							// installing over it would leak its frame.
							if e, found := as.Table.Lookup(va); found && e.Present() {
								if err := k.mem.Free(frame); err != nil {
									panic(err)
								}
								finish()
								return
							}
							pg := k.insertPage(vma.st, vma.File, idx, frame,
								mapping{as: as, va: va.PageBase(), vma: vma})
							k.finishMap(as, va, vma, pg)
							finish()
						})
					})
				}
				k.submitIORetry(vma.st, hw, nvme.OpRead, blk.LBA, frame, ms, completion)
				// The thread blocks: schedule away while the device works.
				hw.AccountContextSwitch()
				k.kspan(ms, "ctx-switch-out", hw, c.CtxSwitchOut, func() {
					if hwFailed {
						// Refill the free page queue, overlapped with the
						// in-flight device I/O (AIOS-style, Section IV-D).
						k.stats.FaultRefills++
						k.refillOnFault(hw)
					}
				})
			})
		})
	})
}

// pageLockWaiter builds the continuation for a fault parked on another
// fault's page lock: when the holder finishes, the waiter takes the
// minor-fault path off the page cache. The page can be absent (the
// holder's I/O failed) or the PTE already resolved (the SMU beat the OS
// to it); both cases just return — the retried walk settles the access.
func (k *Kernel) pageLockWaiter(ms *trace.Miss, hw *cpu.HWThread, as *mmu.AddressSpace,
	va pagetable.VAddr, vma *VMA, idx int, done func()) func() {
	waitStart := k.eng.Now()
	return func() {
		ms.AddSpan(trace.LayerKernel, "page-lock-wait", waitStart, k.eng.Now())
		k.kspan(ms, "minor-fault", hw, k.cfg.Costs.MinorFault, func() {
			if e, found := as.Table.Lookup(va); found && e.Present() {
				done()
				return
			}
			if pg := k.lookupPage(vma.File, idx); pg != nil {
				k.finishMap(as, va, vma, pg)
			}
			done()
		})
	}
}

// sigbus is the delivery model for an unrecoverable fault I/O: the paging
// request cannot be satisfied, so the kernel kills the faulting thread
// (real kernels raise SIGBUS for a failed file-backed fault). The frame
// allocated for the read is returned, and a still-unresolved PTE is
// poisoned to the plain not-present state so later accesses route straight
// to the OS path instead of re-driving hardware at a bad block.
func (k *Kernel) sigbus(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr, frame mem.FrameID, ms *trace.Miss) {
	k.stats.SIGBUSKills++
	th.Killed = true
	if k.tracer != nil {
		k.tracer.NoteKill(ms, fmt.Sprintf("SIGBUS: unrecoverable fault I/O at %#x", uint64(va)), k.eng.Now())
	}
	if frame != mem.NoFrame {
		if err := k.mem.Free(frame); err != nil {
			panic(err)
		}
	}
	if _, _, pte, ok := as.Table.Walk(va); ok {
		if e := pte.Get(); !e.Present() {
			pte.Set(pagetable.MakeSwap(0, e.Prot()))
		}
	}
	k.mmu.TLB().Invalidate(as.ASID, va.PageNumber())
}

// finishMap installs a present PTE for pg at va and records the final
// PTE reference in the page's reverse map.
func (k *Kernel) finishMap(as *mmu.AddressSpace, va pagetable.VAddr, vma *VMA, pg *Page) {
	_, _, pte := as.Table.Ensure(va.PageBase())
	pte.Set(pagetable.MakePresent(pg.frame, vma.Prot, true))
	m := mapping{as: as, va: va.PageBase(), pte: pte, vma: vma}
	// Fix up the reverse map with the final PTE ref.
	replaced := false
	for i := range pg.maps {
		if pg.maps[i].as == as && pg.maps[i].va == m.va {
			pg.maps[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		pg.maps = append(pg.maps, m)
	}
}

// refillOnFault tops up every SMU free page queue from the allocator, on
// the faulting core, while the fault's device I/O is outstanding.
func (k *Kernel) refillOnFault(hw *cpu.HWThread) {
	var total int
	for _, s := range k.smuList {
		total += k.refillSMU(s)
	}
	if total > 0 {
		k.kexec(hw, k.cfg.Costs.RefillPerFrame*sim.Time(total), func() {})
	}
}

// refillSMU moves frames from the allocator into one SMU's free page
// queue(s), respecting the kpoold reserve. It returns the number of frames
// transferred (bookkeeping only; callers charge the time).
func (k *Kernel) refillSMU(s *smu.SMU) int {
	reserve := int(float64(k.mem.Frames()) * k.cfg.KpooldReserveFrac)
	total := 0
	for core, q := range s.Queues() {
		space := q.Space()
		avail := int(k.mem.FreeFrames()) - reserve
		if avail < space {
			space = avail
		}
		if space <= 0 {
			continue
		}
		frames := k.mem.AllocN(space)
		recs := make([]smu.FrameRecord, len(frames))
		for i, f := range frames {
			recs[i] = smu.RecordFor(f)
		}
		if n := s.RefillCore(core, recs); n != len(recs) {
			panic("kernel: free page queue rejected a sized refill")
		}
		total += len(recs)
	}
	return total
}

// swFault is the SW-only scheme (Fig. 17): the exception is taken, an early
// LBA-bit check routes to a function that emulates the SMU in software —
// PMSHR kept as a memory table, the NVMe command issued by the kernel, and
// monitor/mwait used to wait for the completion without a context switch.
// OS metadata stays batched via kpted, like HWDP.
func (k *Kernel) swFault(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr,
	vma *VMA, idx int, ms *trace.Miss, done func()) {
	c := k.cfg.Costs
	hw := th.HW
	k.stats.SWFaults++
	ms.SetCause(trace.CauseSWMiss)
	k.kspan(ms, "exception+sw-check", hw, c.Exception+c.SWCheck, func() {
		_, _, pte, ok := as.Table.Walk(va)
		if !ok {
			panic("kernel: sw fault on unpopulated table")
		}
		addr := pte.Addr()
		if waiters, dup := k.swPMSHR[addr]; dup {
			// Emulated-PMSHR hit: wait for the original fault. mwait until
			// the completion broadcast.
			if ms != nil {
				waitStart, orig := k.eng.Now(), done
				done = func() {
					ms.AddSpan(trace.LayerKernel, "sw-pmshr-wait", waitStart, k.eng.Now())
					orig()
				}
			}
			k.swPMSHR[addr] = append(waiters, done)
			return
		}
		k.swPMSHR[addr] = nil
		k.kspan(ms, "sw-pmshr", hw, c.SWPMSHR, func() {
			k.allocFrame(hw, func(frame mem.FrameID) {
				blk := pte.Get().Block()
				if blk.LBA == pagetable.AnonFirstTouch {
					// Emulated SMU bypasses I/O for first-touch anonymous
					// pages, like the hardware.
					ms.SetCause(trace.CauseAnonZeroFill)
					k.kspan(ms, "sw-complete", hw, c.SWComplete, func() {
						pud, pmd, pteRef, _ := as.Table.Walk(va)
						pteRef.Set(pagetable.MakePresent(frame, vma.Prot, false))
						pagetable.MarkUnsynced(pud, pmd)
						waiters := k.swPMSHR[addr]
						delete(k.swPMSHR, addr)
						done()
						for _, w := range waiters {
							w()
						}
					})
					return
				}
				k.kspan(ms, "sw-submit", hw, c.SWSubmit, func() {
					th.beginStall(k) // mwait: core waits, issues nothing
					k.submitIORetry(vma.st, hw, nvme.OpRead, blk.LBA, frame, ms, func(status uint16) {
						// The interrupt handler touches the monitored
						// address; the mwait returns and the routine
						// finishes the miss.
						th.endStall(k)
						k.kspan(ms, "irq+sw-complete", hw, c.InterruptDelivery+c.SWComplete, func() {
							if status != nvme.StatusSuccess {
								// Unrecoverable: SIGBUS, and fail every fault
								// coalesced on the emulated PMSHR entry.
								k.sigbus(th, as, va, frame, ms)
								waiters := k.swPMSHR[addr]
								delete(k.swPMSHR, addr)
								done()
								for _, w := range waiters {
									w()
								}
								return
							}
							pud, pmd, pteRef, _ := as.Table.Walk(va)
							pteRef.Set(pagetable.MakePresent(frame, vma.Prot, false))
							pagetable.MarkUnsynced(pud, pmd)
							waiters := k.swPMSHR[addr]
							delete(k.swPMSHR, addr)
							done()
							for _, w := range waiters {
								w()
							}
						})
					})
				})
			})
		})
	})
}
