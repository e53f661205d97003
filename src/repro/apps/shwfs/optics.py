"""Shack-Hartmann optics simulation.

Synthesizes the camera frames a Shack-Hartmann wavefront sensor would
produce for a given aberrated wavefront.  The wavefront is expressed in
the Zernike basis (Noll indexing); each lenslet's spot is displaced by
the mean wavefront gradient over its subaperture and rendered as a
Gaussian spot with optional photon/readout noise.

The displacement model is the standard geometric one:

``dx = f * mean(dW/dx over subaperture)``

expressed here directly in pixels via a configurable gain.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.apps.shwfs.config import OpticsError, ShwfsOptics


# ----------------------------------------------------------------------
# Zernike polynomials (Noll indexing)
# ----------------------------------------------------------------------


def noll_to_nm(j: int) -> Tuple[int, int]:
    """Convert a Noll index (1-based) to radial/azimuthal orders (n, m).

    Follows Noll's original ordering: within an order ``n``, even ``j``
    corresponds to cosine terms (m > 0 when j even), odd ``j`` to sine
    terms.
    """
    if j < 1:
        raise OpticsError(f"Noll index must be >= 1, got {j}")
    n = 0
    j1 = j - 1
    while j1 > n:
        n += 1
        j1 -= n
    m_abs = (n % 2) + 2 * ((j1 + ((n + 1) % 2)) // 2)
    sign = 1 if j % 2 == 0 else -1
    return n, sign * m_abs if m_abs else 0


def _radial_polynomial(n: int, m_abs: int, rho: np.ndarray) -> np.ndarray:
    """Zernike radial polynomial R_n^m (|m| form)."""
    if (n - m_abs) % 2:
        return np.zeros_like(rho)
    result = np.zeros_like(rho)
    for k in range((n - m_abs) // 2 + 1):
        coeff = (
            (-1) ** k
            * math.factorial(n - k)
            / (
                math.factorial(k)
                * math.factorial((n + m_abs) // 2 - k)
                * math.factorial((n - m_abs) // 2 - k)
            )
        )
        result = result + coeff * rho ** (n - 2 * k)
    return result


def zernike(j: int, rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the Noll-normalized Zernike polynomial Z_j.

    Args:
        j: Noll index (1 = piston, 2/3 = tilts, 4 = defocus, ...).
        rho: radial coordinate in [0, 1].
        theta: azimuthal coordinate (radians).
    """
    n, m = noll_to_nm(j)
    radial = _radial_polynomial(n, abs(m), rho)
    if m == 0:
        norm = math.sqrt(n + 1)
        return norm * radial
    norm = math.sqrt(2 * (n + 1))
    if m > 0:
        return norm * radial * np.cos(m * theta)
    return norm * radial * np.sin(-m * theta)


def zernike_surface(coefficients: Sequence[float], size: int) -> np.ndarray:
    """Wavefront map (size × size) from Noll coefficients.

    ``coefficients[0]`` multiplies Z1 (piston), etc.  Points outside the
    unit disk are zero.
    """
    if size < 2:
        raise OpticsError(f"surface size must be >= 2, got {size}")
    ys, xs = np.mgrid[0:size, 0:size]
    x = 2.0 * xs / (size - 1) - 1.0
    y = 2.0 * ys / (size - 1) - 1.0
    rho = np.sqrt(x * x + y * y)
    theta = np.arctan2(y, x)
    inside = rho <= 1.0
    surface = np.zeros((size, size))
    for idx, coeff in enumerate(coefficients, start=1):
        if coeff:
            surface += coeff * zernike(idx, rho, theta)
    surface[~inside] = 0.0
    return surface


# ----------------------------------------------------------------------
# Sensor model
# ----------------------------------------------------------------------


def wavefront_slopes(
    wavefront: np.ndarray, optics: ShwfsOptics
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean (dW/dx, dW/dy) per subaperture.

    The wavefront map is resampled onto the sensor grid; gradients are
    finite differences averaged over each subaperture.
    """
    grad_y, grad_x = np.gradient(wavefront)
    rows, cols = optics.grid_rows, optics.grid_cols

    def pool(grad: np.ndarray) -> np.ndarray:
        # Resize the gradient field to the subaperture grid by block
        # averaging after nearest resampling to the sensor resolution.
        ys = np.linspace(0, grad.shape[0] - 1, optics.image_height).astype(int)
        xs = np.linspace(0, grad.shape[1] - 1, optics.image_width).astype(int)
        resampled = grad[np.ix_(ys, xs)]
        return resampled.reshape(
            rows, optics.subaperture_px, cols, optics.subaperture_px
        ).mean(axis=(1, 3))

    return pool(grad_x), pool(grad_y)


def reference_centers(optics: ShwfsOptics) -> np.ndarray:
    """(rows*cols, 2) array of undisturbed spot centers (x, y) px."""
    half = optics.subaperture_px / 2.0 - 0.5
    centers = []
    for row in range(optics.grid_rows):
        for col in range(optics.grid_cols):
            centers.append(
                (col * optics.subaperture_px + half, row * optics.subaperture_px + half)
            )
    return np.array(centers, dtype=np.float64)


def simulate_shwfs_image(
    wavefront: np.ndarray,
    optics: Optional[ShwfsOptics] = None,
    noise_rms: float = 0.0,
    background: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Render a sensor frame for ``wavefront``.

    Returns ``(image, true_displacements)`` where the displacements are
    the injected (dx, dy) per subaperture in pixels — the ground truth
    the centroid algorithms are validated against.
    """
    optics = optics or ShwfsOptics()
    grad_x, grad_y = wavefront_slopes(wavefront, optics)
    dx = optics.gradient_gain_px * grad_x
    dy = optics.gradient_gain_px * grad_y
    # Clamp so spots stay inside their subapertures.
    limit = optics.subaperture_px / 2.0 - 2.0 * optics.spot_sigma_px
    dx = np.clip(dx, -limit, limit)
    dy = np.clip(dy, -limit, limit)

    image = np.full(
        (optics.image_height, optics.image_width), background, dtype=np.float64
    )
    sub = optics.subaperture_px
    half = sub / 2.0 - 0.5
    window = np.arange(sub)
    for row in range(optics.grid_rows):
        for col in range(optics.grid_cols):
            cx = half + dx[row, col]
            cy = half + dy[row, col]
            gx = np.exp(-0.5 * ((window - cx) / optics.spot_sigma_px) ** 2)
            gy = np.exp(-0.5 * ((window - cy) / optics.spot_sigma_px) ** 2)
            spot = optics.spot_peak * np.outer(gy, gx)
            image[
                row * sub : (row + 1) * sub, col * sub : (col + 1) * sub
            ] += spot
    if noise_rms > 0:
        rng = rng or np.random.default_rng(0)
        image = image + rng.normal(0.0, noise_rms, size=image.shape)
        image = np.clip(image, 0.0, None)
    displacements = np.stack(
        [dx.reshape(-1), dy.reshape(-1)], axis=1
    )
    return image.astype(np.float32), displacements
