"""JSON file formats for states, ensembles and channels.

``qsd-state-v1`` carries one Hermitian matrix as row-major real and imaginary
parts; readers reject non-finite entries and matrices that are not Hermitian
within 1e-9.
``qsd-ensemble-v1`` nests state objects under a weight vector, and
``qsd-channel-v1`` stores a list of (not necessarily Hermitian) Kraus blocks;
it is written by ``qsd random --kind channel`` and has no reader. Readers
take ``dim`` as a JSON integer and each entry and weight as a JSON number.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import FormatError
from .ensembles import Ensemble, MixingExperiment
from .linalg import HermitianOperator, _integral

STATE_FORMAT = "qsd-state-v1"
ENSEMBLE_FORMAT = "qsd-ensemble-v1"
CHANNEL_FORMAT = "qsd-channel-v1"


def _listed(arr: np.ndarray):
    """``arr.tolist()`` with each NaN or infinity as None: JSON has no such number."""
    if np.isfinite(arr).all():
        return arr.tolist()
    return [_listed(row) for row in arr] if arr.ndim else None


def _matrix_parts(mat) -> dict:
    mat = np.asarray(mat, dtype=np.complex128)
    return {"re": _listed(mat.real), "im": _listed(mat.imag)}


def _leaves(value) -> list:
    return [x for item in value for x in _leaves(item)] if isinstance(value, list) else [value]


def _numbers(value, field: str) -> np.ndarray:
    """``value``, a JSON array (nested or not) of JSON numbers, as floats; a
    bool or a string is not a number."""
    if not isinstance(value, list) or not all(type(x) in (int, float) for x in _leaves(value)):
        raise FormatError(f"{field} must be an array of JSON numbers")
    try:
        return np.array(value, dtype=np.float64)
    except (OverflowError, ValueError) as exc:  # beyond the float range, or ragged
        raise FormatError(f"{field}: {exc}") from exc


def _parts_to_matrix(payload: dict) -> np.ndarray:
    try:
        dim, re, im = payload["dim"], payload["re"], payload["im"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed state: {exc}") from exc
    if not _integral(dim):
        raise FormatError(f"state: 'dim' must be a JSON integer, got {dim!r}")
    re, im = _numbers(re, "state: 're'"), _numbers(im, "state: 'im'")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FormatError(
            f"state: expected {dim}x{dim} 're'/'im' blocks, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise FormatError("state has non-finite entries")
    return re + 1j * im


def _asymmetry(mat: np.ndarray) -> float:
    """``max |mat - mat*|`` relative to ``max(1, max |mat|)``."""
    return float(np.abs(mat - mat.conj().T).max()) / max(1.0, float(np.abs(mat).max()))


def state_to_dict(op) -> dict:
    """Serialize a Hermitian operator (or density matrix) to qsd-state-v1."""
    mat = op.mat if isinstance(op, HermitianOperator) else np.asarray(op)
    return {"format": STATE_FORMAT, "dim": int(mat.shape[0]), **_matrix_parts(mat)}


def state_from_dict(payload: dict) -> HermitianOperator:
    """Parse qsd-state-v1, rejecting non-Hermitian content."""
    if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT:
        raise FormatError(f"expected format {STATE_FORMAT!r}")
    mat = _parts_to_matrix(payload)
    asym = _asymmetry(mat)
    if asym > 1e-9:
        raise FormatError(f"state matrix is not Hermitian (relative asymmetry {asym:.3e})")
    return HermitianOperator(mat)


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    states = [state_to_dict(dm) for dm in ensemble.states]
    return {"format": ENSEMBLE_FORMAT, "weights": ensemble.weights.tolist(), "states": states}


def ensemble_from_dict(payload: dict) -> Ensemble:
    if not isinstance(payload, dict) or payload.get("format") != ENSEMBLE_FORMAT:
        raise FormatError(f"expected format {ENSEMBLE_FORMAT!r}")
    try:
        weights, state_payloads = payload["weights"], list(payload["states"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed ensemble: {exc}") from exc
    weights = _numbers(weights, "ensemble: 'weights'")
    return Ensemble(weights, [state_from_dict(sp) for sp in state_payloads])


def channel_to_dict(kraus: Sequence[np.ndarray]) -> dict:
    dim = int(np.asarray(kraus[0]).shape[1])
    return {"format": CHANNEL_FORMAT, "dim": dim, "kraus": [_matrix_parts(k) for k in kraus]}


def judge_argument(value):
    """The JSON form of one trial's argument to a verify judge: a number or
    vector as numbers, an ensemble as qsd-ensemble-v1, a mixing experiment
    as its fields, a Hermitian matrix as qsd-state-v1 (a stack of them as a
    list), and any other matrix or stack as the Kraus blocks of qsd-channel-v1.
    A NaN or infinite entry is written as null."""
    if isinstance(value, Ensemble):
        return ensemble_to_dict(value)
    if isinstance(value, MixingExperiment):
        return {name: judge_argument(field) for name, field in vars(value).items()}
    arr = np.asarray(getattr(value, "mat", value))
    if arr.ndim < 2:
        return _listed(arr)
    mats = arr.reshape(-1, *arr.shape[-2:])
    if max(map(_asymmetry, mats)) > 1e-9:
        return channel_to_dict(mats)
    return [state_to_dict(m) for m in mats] if arr.ndim == 3 else state_to_dict(arr)


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
