"""The committed artifact manifest: every paper deliverable, enumerated.

``artifact/manifest.json`` at the repository root is the single source of
truth for what "reproducing the paper" means: one entry per deliverable
(Tables 1–7, Figures 1–11 including the 4–7 panel, the Section 4.4
sensitivity sweeps) naming the experiment entry point that regenerates it,
the exact parameters (scale — the substrate is otherwise fully
deterministic), and the SHA-256 digest of the canonical result the
committed golden under ``artifact/expected/`` records.

:func:`load_manifest` resolves the committed manifest from any working
directory (explicit path → ``$PWD/artifact/manifest.json`` → the copy next
to this installed package's source tree), and :meth:`ArtifactManifest.select`
implements the CLI's ``--only`` filtering (exact identifiers, the ``tables``
/ ``figures`` groups, or shell-style globs like ``table*``).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.errors import ArtifactError

#: Bump when the manifest or golden payload layout changes incompatibly.
MANIFEST_VERSION = 1

#: Repository-root directory holding the committed manifest and goldens.
ARTIFACT_DIRNAME = "artifact"
MANIFEST_FILENAME = "manifest.json"
EXPECTED_DIRNAME = "expected"

_KINDS = ("table", "figure")


def canonical_json(payload: object) -> str:
    """The canonical JSON encoding digests are computed over.

    Sorted keys, no whitespace, full float precision (``repr``-exact, so a
    digest match means bit-identical numbers, the same property the engine
    cache pins across backends).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: object) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Deliverable:
    """One reproducible paper deliverable (a table or a figure).

    Attributes
    ----------
    identifier:
        The paper's name for it (``"table2"``, ``"figure3"``, ``"figure4_7"``).
    kind:
        ``"table"`` or ``"figure"`` (what ``--only tables``/``figures`` selects).
    title:
        Human-readable caption (mirrors the experiment artifact's title).
    experiment:
        Key into :data:`repro.reporting.experiments.ALL_EXPERIMENTS`.
    params:
        Keyword arguments for the experiment entry point (``{"scale": 1.0}``
        for the campaign/sweep-backed deliverables, ``{}`` for the
        micro-experiments).
    expected_digest:
        SHA-256 of the canonical result payload, matching the committed
        golden under ``artifact/expected/<identifier>.json``; ``None``
        until goldens have been recorded (``reproduce --update-expected``).
    """

    identifier: str
    kind: str
    title: str
    experiment: str
    params: Mapping[str, object] = field(default_factory=dict)
    expected_digest: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ArtifactError(
                f"deliverable {self.identifier!r}: kind must be one of {_KINDS}, got {self.kind!r}"
            )

    def to_payload(self) -> dict:
        payload: dict = {
            "identifier": self.identifier,
            "kind": self.kind,
            "title": self.title,
            "experiment": self.experiment,
            "params": dict(self.params),
        }
        if self.expected_digest is not None:
            payload["expected_digest"] = self.expected_digest
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Deliverable":
        try:
            identifier = payload["identifier"]
            kind = payload["kind"]
            title = payload["title"]
            experiment = payload["experiment"]
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"malformed deliverable entry: {payload!r}") from exc
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ArtifactError(f"deliverable {identifier!r}: params must be an object")
        return cls(
            identifier=str(identifier),
            kind=str(kind),
            title=str(title),
            experiment=str(experiment),
            params=dict(params),
            expected_digest=payload.get("expected_digest"),
        )


@dataclass
class ArtifactManifest:
    """The parsed ``artifact/manifest.json``.

    ``path`` records where the manifest was loaded from (``None`` for
    manifests built in memory); the committed goldens live in the
    ``expected/`` directory next to it (:meth:`expected_dir`).
    """

    paper: str
    deliverables: tuple[Deliverable, ...]
    version: int = MANIFEST_VERSION
    path: Path | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for deliverable in self.deliverables:
            if deliverable.identifier in seen:
                raise ArtifactError(f"duplicate deliverable {deliverable.identifier!r}")
            seen.add(deliverable.identifier)

    def identifiers(self) -> tuple[str, ...]:
        return tuple(deliverable.identifier for deliverable in self.deliverables)

    def get(self, identifier: str) -> Deliverable:
        for deliverable in self.deliverables:
            if deliverable.identifier == identifier:
                return deliverable
        raise ArtifactError(
            f"unknown deliverable {identifier!r}; known: {', '.join(self.identifiers())}"
        )

    def select(self, only: Sequence[str] | None = None) -> tuple[Deliverable, ...]:
        """Resolve ``--only`` selectors to deliverables, in manifest order.

        Each selector is matched case-insensitively as an exact identifier,
        a kind group (``table``/``tables``/``figure``/``figures``) or a
        shell-style glob over identifiers (``table*``).  A selector that
        matches nothing is an error — a typo must not silently reproduce
        an empty artifact.
        """
        if not only:
            return self.deliverables
        chosen: dict[str, Deliverable] = {}
        for selector in only:
            token = selector.strip().lower()
            if token in ("table", "tables", "figure", "figures"):
                matches = [d for d in self.deliverables if d.kind == token.rstrip("s")]
            else:
                matches = [
                    d
                    for d in self.deliverables
                    if d.identifier.lower() == token
                    or fnmatch.fnmatchcase(d.identifier.lower(), token)
                ]
            if not matches:
                raise ArtifactError(
                    f"--only {selector!r} matches no deliverable; "
                    f"known: {', '.join(self.identifiers())} (or tables/figures)"
                )
            for match in matches:
                chosen[match.identifier] = match
        return tuple(d for d in self.deliverables if d.identifier in chosen)

    def with_digests(self, digests: Mapping[str, str]) -> "ArtifactManifest":
        """A copy whose deliverables carry the given expected digests."""
        updated = tuple(
            replace(d, expected_digest=digests.get(d.identifier, d.expected_digest))
            for d in self.deliverables
        )
        return ArtifactManifest(
            paper=self.paper, deliverables=updated, version=self.version, path=self.path
        )

    def expected_dir(self) -> Path:
        if self.path is None:
            raise ArtifactError("manifest has no path; cannot locate expected/ goldens")
        return self.path.parent / EXPECTED_DIRNAME

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "paper": self.paper,
            "deliverables": [d.to_payload() for d in self.deliverables],
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, object], path: Path | None = None
    ) -> "ArtifactManifest":
        if not isinstance(payload, Mapping):
            raise ArtifactError("manifest must be a JSON object")
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise ArtifactError(
                f"unsupported manifest version {version!r} (this build reads {MANIFEST_VERSION})"
            )
        entries = payload.get("deliverables")
        if not isinstance(entries, Iterable) or isinstance(entries, (str, bytes)):
            raise ArtifactError("manifest 'deliverables' must be a list")
        deliverables = tuple(Deliverable.from_payload(entry) for entry in entries)
        if not deliverables:
            raise ArtifactError("manifest lists no deliverables")
        return cls(
            paper=str(payload.get("paper", "")),
            deliverables=deliverables,
            version=MANIFEST_VERSION,
            path=path,
        )

    def save(self, path: Path | None = None) -> Path:
        """Write the manifest as stable, reviewable JSON; returns the path."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ArtifactError("manifest has no path; pass one to save()")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
        self.path = target
        return target


def default_manifest_path() -> Path:
    """Locate the committed manifest from any working directory.

    Preference order: ``$PWD/artifact/manifest.json`` (and upward, so the
    CLI works from a subdirectory of a clone), then the copy that ships
    next to this package's source tree (``src/repro/../../artifact``).
    """
    current = Path.cwd()
    for directory in (current, *current.parents):
        candidate = directory / ARTIFACT_DIRNAME / MANIFEST_FILENAME
        if candidate.is_file():
            return candidate
    packaged = Path(__file__).resolve().parents[3] / ARTIFACT_DIRNAME / MANIFEST_FILENAME
    if packaged.is_file():
        return packaged
    raise ArtifactError(
        f"no {ARTIFACT_DIRNAME}/{MANIFEST_FILENAME} found from {current} upward "
        "(run from a clone, or pass --manifest PATH)"
    )


def load_manifest(path: str | Path | None = None) -> ArtifactManifest:
    """Load and validate a manifest (the committed one when ``path`` is None)."""
    manifest_path = Path(path) if path is not None else default_manifest_path()
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactError(f"manifest not found: {manifest_path}") from exc
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable manifest {manifest_path}: {exc}") from exc
    return ArtifactManifest.from_payload(payload, path=manifest_path)
