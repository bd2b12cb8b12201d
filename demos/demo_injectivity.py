"""Detecting self-overlap of a deformation, exactly and by Monte Carlo.

An orientation-preserving deformation can still press the body through
itself: det F > 0 everywhere while distinct material points land on the
same spatial point.  On a connected body that happens exactly when the
deformed boundary surface crosses itself (Ball 1981), which the solver
checks.  The Monte Carlo diagnostic compares the integral of det F (the
volume counted with multiplicity) with the measure-theoretic volume of
the image; their difference is the doubly covered volume.

The fold constructed here wraps a 270-degree fan of wedges onto a
450-degree image fan, so a quarter turn is covered exactly twice and
the overlap volume is known in closed form.
"""

import numpy as np

import sharptop as st
from sharptop.surfaces import wedge_fold


def main():
    mesh, image, info = wedge_fold()
    state = st.DeformationState(positions=image,
                                dirichlet_mask=np.zeros(len(image), bool))
    F = st.deformation_gradients(mesh, state.positions)
    _, _, det = st.minors(F)
    print(f"fold map: {mesh.n_tets} tets, min det F = {det.min():.4f} "
          "(orientation preserving everywhere)")

    crosses = st.boundary_self_intersects(mesh, state.positions)
    print(f"boundary surface crosses itself: {crosses}")

    res = st.ciarlet_necas_residual(mesh, state, samples=200_000, seed=0)
    print(f"integral of det F   : {res.jacobian_integral:.6f} "
          f"(exact {info['jacobian_integral']:.6f})")
    print(f"image volume (MC)   : {res.image_volume_estimate:.6f} "
          f"(exact {info['union_volume']:.6f})")
    print(f"overlap residual    : {res.residual:.6f} "
          f"(exact {info['overlap_volume']:.6f}, "
          f"MC std {res.mc_std:.6f})")
    sigmas = res.residual / res.mc_std
    print(f"overlap detected at {sigmas:.1f} standard deviations")

    box = st.build_box_mesh(3, 3, 3)
    r = st.ciarlet_necas_residual(box, st.identity_state(box),
                                  samples=200_000, seed=1)
    print(f"\ncontrol (identity on a cube): residual {r.residual:.2e}, "
          "boundary surface crosses itself: "
          f"{st.boundary_self_intersects(box, box.vertices)}")


if __name__ == "__main__":
    main()
