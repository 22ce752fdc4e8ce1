"""Output checks of the benchmark.

Each check raises CheckFailed with a message naming what was compared; the
tests in test_checks.py feed every check a right and a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def close(name: str, got: float, want: float, rtol: float) -> None:
    if not math.isfinite(got) or abs(got - want) > rtol * abs(want):
        raise CheckFailed(f"{name}: got {got!r}, want {want!r} within relative {rtol:g}")


def arrays_close(name: str, got, want, atol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= atol:
        raise CheckFailed(f"{name}: max deviation {worst:.3g} exceeds {atol:g}")


def profile_matches(name: str, got, want, rtol: float = 1e-9) -> None:
    """Amplitudes agree to rtol of the reference peak."""
    want = np.asarray(want, dtype=float)
    arrays_close(name, got, want, rtol * float(np.max(np.abs(want))))


def bit_identical(name: str, got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes():
        raise CheckFailed(f"{name}: arrays differ after the round trip")


def within_half_pixel(name: str, got_nm: float, want_nm: float, pixel_nm: float) -> None:
    if not abs(got_nm - want_nm) < pixel_nm / 2.0:
        raise CheckFailed(
            f"{name}: {got_nm:.4f} nm is not within half a pixel ({pixel_nm / 2:.4f} nm) "
            f"of {want_nm:.4f} nm"
        )


def width_in_pixels(name: str, fwhm_nm: float, pixel_nm: float, lo: float = 1.0, hi: float = 2.0) -> None:
    ratio = fwhm_nm / pixel_nm
    if not lo <= ratio <= hi:
        raise CheckFailed(f"{name}: FWHM is {ratio:.3f} pixels, outside [{lo}, {hi}]")


def sideband_pair_at(name: str, pairs, offset_nm: float, tolerance_nm: float) -> None:
    if not pairs:
        raise CheckFailed(f"{name}: no sideband pair found, expected one at {offset_nm:.4f} nm")
    nearest = min(abs(p[0] - offset_nm) for p in pairs)
    if not nearest <= tolerance_nm:
        raise CheckFailed(
            f"{name}: nearest sideband pair is {nearest:.4f} nm from {offset_nm:.4f} nm "
            f"(tolerance {tolerance_nm:.4f} nm)"
        )


def no_sidebands(name: str, pairs) -> None:
    if pairs:
        raise CheckFailed(f"{name}: clean record shows sideband pairs {pairs}")


def call_ok(name: str, returncode: int, stderr: str) -> None:
    if returncode != 0 or stderr:
        raise CheckFailed(f"{name}: exit {returncode}, stderr {stderr.strip()[:300]!r}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_hashes_match(name: str, manifest_text: str) -> dict:
    """Every output listed in a manifest exists with its recorded SHA-256; returns the manifest."""
    doc = json.loads(manifest_text)
    outputs = doc.get("outputs") or []
    if not outputs:
        raise CheckFailed(f"{name}: manifest lists no outputs")
    for entry in outputs:
        path = Path(entry["path"])
        if not path.is_file():
            raise CheckFailed(f"{name}: {path} listed in the manifest is missing")
        if sha256_file(path) != entry["sha256"]:
            raise CheckFailed(f"{name}: SHA-256 of {path} does not match the manifest")
    return doc


def data_file_digests(out_dir: Path) -> dict:
    """SHA-256 of every file under out_dir except manifest.json (it holds timings)."""
    out_dir = Path(out_dir)
    return {
        str(p.relative_to(out_dir)): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def same_digests(name: str, got: dict, want: dict) -> None:
    if got != want:
        differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise CheckFailed(f"{name}: data files differ between sessions: {differ}")
