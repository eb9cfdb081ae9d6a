"""Lease-based work stealing over the campaign manifest.

One manifest file, many scheduler processes: every scheduler that attaches
gets a fresh *generation* id (``max_gen + 1`` at attach, so a restarted
scheduler always outranks its own ghost), claims cells by appending
``claim`` records, and heartbeats by appending ``tick`` records.  Time is
logical — the max ``clock`` across all claim/tick records — so a claim's
lease (``clock_at_claim + lease_ticks``) expires only as *surviving*
schedulers make progress; wall-clock skew between writers cannot expire a
live lease, and a wedged fleet expires nothing (nothing is making
progress, so nothing can be stolen into the same wedge).

The safety story, in order of authority:

1. **Settled records are exactly-once in the merge.**  ``records()`` is
   last-wins by cell id and summaries are deterministic, so even a raced
   duplicate terminal record cannot change the merged matrix — but
   :meth:`WorkQueue.record` still refuses to append a terminal record for a
   cell it has already seen settled (ok or diagnosed), keeping the file
   clean in practice.  A cell whose latest record is an undiagnosed error
   or a timeout may be re-run (resume does so), and the re-run's record
   is appended over it.
2. **Execution is at-least-once.**  A stolen cell may still be running in
   a zombie owner; both finish, both try to record, rule 1 merges them.
3. **Claims resolve deterministically.**  Two claims for one cell compare
   by ``(gen, clock, worker)`` — see :meth:`ClaimRecord.beats` — so every
   reader of the same bytes agrees on the owner.

A claim carries the cell's portable *spec* (:mod:`repro.serve.jobs`), so a
peer can rebuild the cell without the original submission; the rebuilt
cell's id is verified against the claim before stealing (a corrupt spec is
quarantine-skipped, never silently executed as the wrong cell).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.campaign.manifest import (
    CellRecord,
    ClaimRecord,
    Manifest,
    ManifestFollower,
    ManifestScan,
)

from repro.serve.jobs import cell_from_spec

#: a claim is renewed once fewer than this many ticks of lease remain
RENEW_FRACTION = 0.5

#: default lease length in scheduler ticks (at the default 0.25 s tick
#: interval: ~6 s of survivor progress before an orphan is stolen)
DEFAULT_LEASE_TICKS = 24


class WorkQueue:
    """One scheduler's view of the shared manifest work queue.

    The view is kept current by a :class:`ManifestFollower`: every
    :meth:`scan` and :meth:`record` folds only the manifest lines appended
    since the previous one, so a tick or a merge costs O(new lines), not
    O(file).
    """

    def __init__(
        self,
        manifest: Manifest,
        worker: str,
        lease_ticks: int = DEFAULT_LEASE_TICKS,
    ) -> None:
        if lease_ticks < 1:
            raise ValueError("lease_ticks must be >= 1")
        self.manifest = manifest
        self.worker = worker
        self.lease_ticks = lease_ticks
        self.gen = 0  # assigned at attach()
        self.clock = 0
        #: cell ids this scheduler currently holds a claim on
        self.mine: Set[str] = set()
        #: terminal cell ids seen in any scan or recorded by us
        self.done: Set[str] = set()
        #: the subset of ``done`` whose latest record is not settled (an
        #: undiagnosed error or a timeout): a re-run may record over it
        self._unsettled: Set[str] = set()
        self.stolen_total = 0
        self._follower = ManifestFollower(manifest.path)
        #: terminal records folded but not yet handed out by scan()
        self._fresh: Dict[str, CellRecord] = {}

    # ------------------------------------------------------------------
    def attach(self) -> ManifestScan:
        """Join the queue: adopt the file's clock, take a fresh generation.

        The generation is announced immediately via a gen-stamped tick so a
        scheduler that attaches next cannot be handed the same number, even
        before our first claim.  (Two truly simultaneous attaches may still
        tie; claim conflicts then resolve on clock and worker name.)
        Returns the full scan: every terminal record in the file.
        """
        scan = self.scan()
        self.gen = scan.max_gen + 1
        try:
            self.manifest.append_tick(self.worker, self.clock, gen=self.gen)
        except OSError:
            pass  # announcement is an optimization; claims still carry gen
        return scan

    def tick(self) -> None:
        """Advance the logical clock by one and announce it."""
        self.clock += 1
        self.manifest.append_tick(self.worker, self.clock)

    @property
    def claims(self) -> Dict[str, ClaimRecord]:
        """The winning claim per cell, as of the last scan or record."""
        return self._follower.scan.claims

    # ------------------------------------------------------------------
    def claim(
        self,
        cell_id: str,
        spec: Optional[dict],
        trace: Optional[str] = None,
    ) -> ClaimRecord:
        """Take (or renew) the lease on one cell.

        ``trace`` is the submission's trace id (:mod:`repro.obs.spans`);
        riding in the claim record, it survives the owner's death — the
        peer that steals the cell reads it back out of the winning claim
        and keeps recording spans under the same trace.
        """
        claim = ClaimRecord(
            cell_id=cell_id,
            worker=self.worker,
            gen=self.gen,
            clock=self.clock,
            lease=self.clock + self.lease_ticks,
            spec=spec,
            trace=trace,
        )
        self.manifest.append_claim(claim)
        self.mine.add(cell_id)
        return claim

    def release(self, cell_id: str) -> None:
        self.mine.discard(cell_id)

    def renewals_due(self, scan: ManifestScan) -> List[str]:
        """Cells we own whose lease has burned past the renewal point."""
        due: List[str] = []
        threshold = self.lease_ticks * RENEW_FRACTION
        for cid in self.mine:
            claim = scan.claims.get(cid)
            if claim is None:
                due.append(cid)  # our claim lost a conflict: reassert
            elif claim.lease - self.clock < threshold:
                due.append(cid)
        return due

    # ------------------------------------------------------------------
    def seed(self, cells: List[Tuple]) -> None:
        """Append an already-expired claim for each cell, under this
        scheduler's generation.

        Hands cells to a fleet of peer schedulers through the manifest
        alone: any attached scheduler but this one steals them at once.
        The seeder of a fleet run uses it, and so does a draining node,
        releasing the cells it will not finish.  The claims are stamped one
        clock past our own, so each outranks any claim we made on the cell
        earlier (a crash-requeued cell was claimed at launch).  Items are
        ``(cell_id, spec)`` or ``(cell_id, spec, trace)`` tuples.
        """
        if not cells:
            return
        self.clock += 1
        for item in cells:
            cell_id, spec, *rest = item
            self.manifest.append_claim(
                ClaimRecord(
                    cell_id=cell_id,
                    worker=self.worker,
                    gen=self.gen,
                    clock=self.clock,
                    lease=self.clock - 1,
                    spec=spec,
                    trace=rest[0] if rest else None,
                )
            )
            self.mine.discard(cell_id)

    def _follow(self) -> None:
        """Fold the lines peers (and we) appended since the last call."""
        follower = self._follower
        follower.poll()
        fresh = follower.take_records()
        self._fresh.update(fresh)
        for rec in fresh.values():
            self.mark(rec)
        self.clock = max(self.clock, follower.scan.clock)

    def scan(self) -> ManifestScan:
        """Catch up with the shared file; fold peer progress into local state.

        The returned scan's ``claims``, ``clock`` and ``max_gen`` cover the
        whole file; its ``records`` hold only the terminal records folded
        since the previous scan (the first scan returns all of them).
        """
        self._follow()
        view = self._follower.scan
        # a peer outbid one of our claims (e.g. we stalled past our lease
        # and were stolen from): stop treating the cell as ours
        for cid in list(self.mine):
            claim = view.claims.get(cid)
            if claim is not None and not (
                claim.worker == self.worker and claim.gen == self.gen
            ):
                self.mine.discard(cid)
        records, self._fresh = self._fresh, {}
        return ManifestScan(
            records=records,
            claims=view.claims,
            clock=view.clock,
            max_gen=view.max_gen,
        )

    def steals(self, scan: Optional[ManifestScan] = None) -> List[Tuple[str, dict]]:
        """Expired foreign claims whose spec lets us re-run the cell.

        Returns ``(cell_id, spec)`` pairs validated spec-against-id; the
        caller claims each before executing (making the steal visible and
        restarting the lease under our generation).
        """
        claims = self.claims if scan is None else scan.claims
        out: List[Tuple[str, dict]] = []
        for cid, claim in claims.items():
            if cid in self.done or cid in self.mine:
                continue
            if claim.worker == self.worker and claim.gen == self.gen:
                continue  # our own live claim
            if claim.lease >= self.clock:
                continue  # lease still running
            if claim.spec is None:
                continue  # not portable: the owner must resume it itself
            try:
                cell = cell_from_spec(claim.spec)
            except Exception:
                continue  # corrupt spec: never execute a guess
            if cell.cell_id != cid:
                continue  # spec does not describe the cell it claims to
            out.append((cid, dict(claim.spec)))
        return out

    # ------------------------------------------------------------------
    def mark(self, rec: CellRecord) -> None:
        """Note ``rec`` as the cell's latest terminal record."""
        self.done.add(rec.cell_id)
        if rec.settled:
            self._unsettled.discard(rec.cell_id)
        else:
            self._unsettled.add(rec.cell_id)

    def _settled(self, cell_id: str) -> bool:
        return cell_id in self.done and cell_id not in self._unsettled

    def record(self, rec: CellRecord) -> bool:
        """Append a terminal record unless the cell is already settled.

        Returns True when this call appended the record (we won the merge);
        False when a peer (or a zombie former self) already recorded it.
        Raises ``OSError`` (e.g. ENOSPC) — callers retry until it lands.
        """
        if self._settled(rec.cell_id):
            self.release(rec.cell_id)
            return False
        # freshness check: another scheduler may have recorded the cell
        # since our last scan (folds only the lines appended since then)
        self._follow()
        if self._settled(rec.cell_id):
            self.release(rec.cell_id)
            return False
        self.manifest.append(rec)
        self.mark(rec)
        self.release(rec.cell_id)
        return True
