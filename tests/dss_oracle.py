"""Test oracle: the serial DSS of a contravariant vector field.

Contravariant components live in each face's coordinate frame, so they
cannot be averaged directly across cube edges.  The field is converted
to its frame-free Cartesian tangent representation, DSS'd componentwise
by the whole-mesh DSS and projected back — the device both layouts'
``_dss`` apply to vectors.  (HOMME exchanges lat-lon components instead;
the Cartesian form avoids the polar special cases.)
"""


def dss_vector(geom, v):
    """``from_cartesian(dss(to_cartesian(v)))`` of an (E, [L,] np, np, 2)
    field on a whole-mesh :class:`~repro.homme.element.ElementGeometry`."""
    w = geom.to_cartesian(v)
    # (E, np, np, 3) is already the mesh's layout; levels go through dss.
    return geom.from_cartesian(geom._mesh_dss(w) if v.ndim == 4 else geom.dss(w))
