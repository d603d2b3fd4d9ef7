"""JSON file formats for states, ensembles and channels.

``qsd-state-v1`` carries one Hermitian matrix as row-major real and imaginary
parts; readers reject non-finite entries and matrices that are not Hermitian
within 1e-9.
``qsd-ensemble-v1`` nests state objects under a weight vector, and
``qsd-channel-v1`` stores a list of (not necessarily Hermitian) Kraus blocks;
it is written by ``qsd random --kind channel`` and has no reader.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import FormatError
from .ensembles import Ensemble
from .linalg import HermitianOperator

STATE_FORMAT = "qsd-state-v1"
ENSEMBLE_FORMAT = "qsd-ensemble-v1"
CHANNEL_FORMAT = "qsd-channel-v1"


def _matrix_parts(mat: np.ndarray) -> tuple[list, list]:
    return mat.real.tolist(), mat.imag.tolist()


def _parts_to_matrix(payload: dict) -> np.ndarray:
    try:
        dim = int(payload["dim"])
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed state: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FormatError(
            f"state: expected {dim}x{dim} 're'/'im' blocks, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise FormatError("state has non-finite entries")
    return re + 1j * im


def state_to_dict(op) -> dict:
    """Serialize a Hermitian operator (or density matrix) to qsd-state-v1."""
    mat = op.mat if isinstance(op, HermitianOperator) else np.asarray(op)
    re, im = _matrix_parts(np.asarray(mat, dtype=np.complex128))
    return {"format": STATE_FORMAT, "dim": int(mat.shape[0]), "re": re, "im": im}


def state_from_dict(payload: dict) -> HermitianOperator:
    """Parse qsd-state-v1, rejecting non-Hermitian content."""
    if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT:
        raise FormatError(f"expected format {STATE_FORMAT!r}")
    mat = _parts_to_matrix(payload)
    scale = max(1.0, float(np.abs(mat).max()))
    asym = float(np.abs(mat - mat.conj().T).max())
    if asym > 1e-9 * scale:
        raise FormatError(f"state matrix is not Hermitian (asymmetry {asym:.3e})")
    return HermitianOperator(mat)


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    return {
        "format": ENSEMBLE_FORMAT,
        "weights": [float(w) for w in ensemble.weights],
        "states": [state_to_dict(dm) for dm in ensemble.states],
    }


def ensemble_from_dict(payload: dict) -> Ensemble:
    if not isinstance(payload, dict) or payload.get("format") != ENSEMBLE_FORMAT:
        raise FormatError(f"expected format {ENSEMBLE_FORMAT!r}")
    try:
        weights = [float(w) for w in payload["weights"]]
        state_payloads = list(payload["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed ensemble: {exc}") from exc
    return Ensemble(weights, [state_from_dict(sp) for sp in state_payloads])


def channel_to_dict(kraus: Sequence[np.ndarray]) -> dict:
    blocks = []
    for k in kraus:
        arr = np.asarray(k, dtype=np.complex128)
        re, im = _matrix_parts(arr)
        blocks.append({"re": re, "im": im})
    dim = int(np.asarray(kraus[0]).shape[1])
    return {"format": CHANNEL_FORMAT, "dim": dim, "kraus": blocks}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def dump_json(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=None, separators=(",", ":"), allow_nan=False) + "\n"
    if path == "-":
        import sys

        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_state(path: str) -> HermitianOperator:
    return state_from_dict(load_json(path))


def read_ensemble(path: str) -> Ensemble:
    return ensemble_from_dict(load_json(path))
