"""The Tier-2 template store.

Tier-1 memo entries are absolute addresses in one machine's code segment,
so they can never leave their session.  Tier-2 :class:`~repro.core
.codecache.CodeTemplate` objects are the opposite: post-link instruction
*copies* with positional hole/relocation records, referencing no session
state at all.  Every :class:`~repro.core.codecache.CodeCache` keeps its
templates in a :class:`TemplateStore`: a private single-stripe one by
default, or the one store of a :class:`~repro.serving.engine.Engine`,
which lets every session clone templates any *other* session paid the
cold-compile price for (cross-session warm starts), while each session
still installs the clone into its own segment.

The store is the only owner of the persistent tier: it may carry a
:class:`~repro.persist.diskcache.DiskCodeCache`, to which templates added
here are offered (write-behind), and an in-memory miss probes disk before
giving up, so a fresh process or engine starts warm.

Concurrency: the store is lock-striped.  Shape keys hash onto
:data:`STRIPES` independent buckets, each with its own lock, so sessions
compiling unrelated closures never contend.  ``match`` snapshots the
candidate list under the stripe lock but evaluates matches and guards
*outside* it: guard evaluation reads the probing session's data memory,
and a slow (or adversarial) memory must never stall every other session
hashing onto the same stripe.  Templates are immutable by convention,
but another session's ``poison`` chaos action may tamper with a body in
place at any moment, even after ``match`` has handed the template out.
The integrity checksum is therefore checked by the cloning session, on
the one copy of the body that it then clones and audits
(:meth:`~repro.core.codecache.CodeCache.match_template`).
"""

from __future__ import annotations

import threading

from repro.core.codecache import _guards_hold
from repro.telemetry.metrics import REGISTRY

#: Number of independent lock stripes.
STRIPES = 16

#: Templates evicted because their body failed its integrity checksum
#: (cache poisoning — tampering with a stored template).
_POISONED = REGISTRY.counter("cache.poisoned_evictions")


class TemplateStore:
    """A thread-safe, lock-striped map ``shape_key -> [CodeTemplate]``,
    optionally backed by a persistent on-disk tier."""

    def __init__(self, templates_per_shape: int = 8, stripes: int = STRIPES,
                 disk=None):
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.templates_per_shape = templates_per_shape
        self.disk = disk
        self._stripes = tuple(
            (threading.RLock(), {}) for _ in range(stripes)
        )

    def _stripe(self, shape_key):
        lock, shapes = self._stripes[hash(shape_key) % len(self._stripes)]
        return lock, shapes

    def add(self, shape_key, template, signature=None) -> None:
        lock, shapes = self._stripe(shape_key)
        with lock:
            bucket = shapes.setdefault(shape_key, [])
            bucket.append(template)
            if len(bucket) > self.templates_per_shape:
                bucket.pop(0)
        # Write-behind persistence happens outside the stripe lock: disk
        # encoding must never serialize other sessions' matches.
        if self.disk is not None and signature is not None:
            self.disk.offer(signature, template)

    def match(self, signature, memory, segment=None):
        """The store-side half of ``CodeCache.match_template``: same-shape
        template, matching non-hole values, and guards holding in *this*
        session's memory.  On an in-memory miss the disk tier (when
        present) is probed, and any loaded templates are admitted to the
        stripe for next time."""
        lock, shapes = self._stripe(signature.shape_key)
        with lock:
            candidates = list(shapes.get(signature.shape_key, ()))
        found = self._pick(candidates, signature, memory, segment)
        if found is not None:
            return found
        if (self.disk is not None and segment is not None
                and signature.persistable):
            loaded = self.disk.load(signature, segment)
            if loaded:
                with lock:
                    bucket = shapes.setdefault(signature.shape_key, [])
                    bucket.extend(loaded)
                    while len(bucket) > self.templates_per_shape:
                        bucket.pop(0)
                return self._pick(loaded, signature, memory, segment)
        return None

    def _pick(self, candidates, signature, memory, segment):
        """Lock-free scan of snapshotted candidates (see class docs)."""
        for template in candidates:
            if not template.matches(signature):
                continue
            if segment is not None and not template.links_into(segment):
                continue
            if _guards_hold(template.guards, memory):
                return template
        return None

    def evict(self, shape_key, template) -> None:
        lock, shapes = self._stripe(shape_key)
        with lock:
            bucket = shapes.get(shape_key)
            if bucket and template in bucket:
                bucket.remove(template)

    def evict_poisoned(self, shape_key, template) -> None:
        """Evict a template whose body failed its integrity checksum
        (cache poisoning), and count it."""
        self.evict(shape_key, template)
        _POISONED.inc()

    def drop_after(self, length) -> int:
        """Drop every template installed past segment ``length`` (the
        owning cache's segment rolled back); return how many went."""
        dropped = 0
        for lock, shapes in self._stripes:
            with lock:
                for shape, bucket in list(shapes.items()):
                    kept = [t for t in bucket if t.end <= length]
                    dropped += len(bucket) - len(kept)
                    if kept:
                        shapes[shape] = kept
                    else:
                        del shapes[shape]
        return dropped

    def items(self) -> list:
        """Snapshot of every stored ``(shape_key, template)`` pair."""
        out = []
        for lock, shapes in self._stripes:
            with lock:
                out.extend((shape, template)
                           for shape, bucket in shapes.items()
                           for template in bucket)
        return out

    def flush(self) -> None:
        """Drain the disk tier's write-behind queue (no-op without one)."""
        if self.disk is not None:
            self.disk.flush()

    def corrupt_disk_first(self) -> bool:
        """Chaos hook: tamper with one persisted entry (no-op without a
        disk tier)."""
        return self.disk is not None and self.disk.corrupt_first()

    def tamper_first(self) -> bool:
        """Chaos hook: corrupt one stored template in place (simulated
        cache poisoning): the addend of its first patch hole when it has
        one, else one operand of its body.  Returns True when a template
        was found to tamper with."""
        for lock, shapes in self._stripes:
            with lock:
                for bucket in shapes.values():
                    for template in bucket:
                        if template.holes:
                            rel, field, org, scl, add, is_float = \
                                template.holes[0]
                            template.holes[0] = (rel, field, org, scl,
                                                 add + 1, is_float)
                            return True
                        if template.instructions:
                            instr = template.instructions[0]
                            instr.a = (instr.a + 1 if isinstance(instr.a, int)
                                       else 1)
                            return True
        return False

    def clear(self) -> int:
        """Drop every template and let the disk tier hand its templates
        out again; return how many in-memory templates went."""
        dropped = 0
        for lock, shapes in self._stripes:
            with lock:
                dropped += sum(len(b) for b in shapes.values())
                shapes.clear()
        if self.disk is not None:
            self.disk.reset_probes()
        return dropped

    def stats(self) -> dict:
        shapes = templates = 0
        for lock, stripe_shapes in self._stripes:
            with lock:
                shapes += len(stripe_shapes)
                templates += sum(len(b) for b in stripe_shapes.values())
        out = {"shapes": shapes, "templates": templates}
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out

    def __repr__(self) -> str:
        s = self.stats()
        return (f"<TemplateStore {s['templates']} templates / "
                f"{s['shapes']} shapes>")
