"""The frame registry and the nine frame scalars of a jet."""
import ast
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from framestream import (DiffConfig, MuForm, OmegaForm, OutOfRange,
                         builtin_frame, catalog_entry, conservation_check,
                         frame_jet, grad_mu, grad_omega)
from framestream import catalog, frames, streaming, verification
from framestream.derivatives import FrameScalars, frame_scalars
from framestream.frames import BUILTIN_FRAMES, frame_spec
from framestream.verification import (_angle_grid, default_frames,
                                      random_states)

SRC = Path(__file__).resolve().parent.parent / "src" / "framestream"


def test_default_frames_are_the_registry_defaults():
    assert list(default_frames()) == list(BUILTIN_FRAMES)
    for name, fid in default_frames().items():
        spec = frame_spec(fid)
        assert spec.name == name and spec.default is fid
        field = builtin_frame(fid)
        assert field.fid is fid


def test_field_names_carry_numeric_parameters():
    names = {name: builtin_frame(fid).name
             for name, fid in default_frames().items()}
    assert names == {"constant": "constant", "cylindrical-i": "cylindrical-i",
                     "cylindrical-ii": "cylindrical-ii", "sphere": "sphere",
                     "ellipsoid": "ellipsoid(2.0,1.0,1.0)",
                     "paraboloid": "paraboloid(1.0,2.0)", "graph": "graph"}


@pytest.mark.parametrize("bad", [42, "sphere", None])
def test_unknown_id_is_out_of_range(bad):
    with pytest.raises(OutOfRange):
        frame_spec(bad)
    with pytest.raises(OutOfRange):
        builtin_frame(bad)
    with pytest.raises(OutOfRange):
        random_states(bad, 1, np.random.default_rng(0))


@pytest.mark.parametrize("name", list(BUILTIN_FRAMES))
def test_conservation_verdict_matches_registry(name):
    spec = BUILTIN_FRAMES[name]
    rng = np.random.default_rng(11)
    points = [r for r, _, _ in random_states(spec.default, 24, rng)]
    report = conservation_check(builtin_frame(spec.default), points,
                                _angle_grid(8, rng))
    assert (report.feasible, report.reason) == spec.conservation


def test_scalar_names_are_the_catalog_aux_names():
    assert FrameScalars._fields == catalog._AUX_KEYS


@pytest.mark.parametrize("name", list(BUILTIN_FRAMES))
@pytest.mark.parametrize("engine", ["dual", "fd"])
def test_frame_scalars_match_catalog_aux(name, engine):
    fid = default_frames()[name]
    field = builtin_frame(fid)
    entry = catalog_entry(fid)
    cfg = DiffConfig(engine=engine)
    tol = 1e-12 if engine == "dual" else 1e-7
    rng = np.random.default_rng(4)
    for r, _, _ in random_states(fid, 15, rng):
        got = frame_scalars(frame_jet(field, r, cfg))
        for key, value in got._asdict().items():
            want = entry.auxiliary[key](r)
            assert abs(value - want) <= tol * (1.0 + abs(want)), (key, r)


def test_compared_routes_do_not_use_the_shared_scalars(monkeypatch):
    # The acceptance suite's form agreement (criterion 5) checks the
    # shared scalars against these routes, so they must not call
    # frame_scalars themselves.
    def refuse(jet):
        raise AssertionError("frame_scalars called")
    monkeypatch.setattr(streaming, "frame_scalars", refuse)
    field = builtin_frame(default_frames()["sphere"])
    r = np.array([1.0, 0.5, 0.7])
    grad_mu(field, r, 0.3, 1.1, MuForm.CURVE_CURVATURE)
    for form in (OmegaForm.DIRECT_TB, OmegaForm.DIRECT_BT,
                 OmegaForm.SURFACE_B, OmegaForm.SURFACE_T):
        grad_omega(field, r, 0.3, 1.1, form)
    with pytest.raises(AssertionError):
        grad_omega(field, r, 0.3, 1.1, OmegaForm.CURVE_CURVATURE)


def _imports(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names
                         if node.module is None)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def _referenced_names(code) -> set:
    """The global and attribute names a code object and the code of its
    nested functions, lambdas and comprehensions reference."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _referenced_names(const)
    return names


def _called_functions(fn) -> set:
    """fn and every framestream function that its code names, and theirs
    in turn: a global of the function's module, or an attribute of a
    module it names."""
    found, todo = set(), [fn]
    while todo:
        fn = todo.pop()
        if fn in found:
            continue
        found.add(fn)
        names = _referenced_names(fn.__code__)
        spaces = [fn.__globals__] + [
            vars(v) for k, v in fn.__globals__.items()
            if k in names and isinstance(v, types.ModuleType)]
        for name in names:
            for space in spaces:
                found_fn = inspect.unwrap(space.get(name))
                if (isinstance(found_fn, types.FunctionType)
                        and found_fn.__module__.startswith("framestream")):
                    todo.append(found_fn)
    return found


# The entry points of the differential engines.
_ENGINE_NAMES = {"frame_jet", "jacobian", "directional_derivative",
                 "frame_scalars", "coefficient_terms", "checked_terms",
                 "DiffConfig", "DEFAULT_CFG"}


def test_truth_sources_stay_independent():
    assert "catalog" not in _imports("frames")
    assert not {"derivatives", "streaming", "dual"} & _imports("catalog")
    called = _called_functions(verification.ray_oracle)
    assert {verification._stacked_rays, verification._one_ray,
            verification._ray_rates, frames._each, frames.on_stack,
            frames.raw_parts} <= called
    for fn in called:
        assert not _ENGINE_NAMES & _referenced_names(fn.__code__), fn
    # The catalog shares the coefficient path's domain, not its angle
    # arithmetic.
    called = _called_functions(catalog.catalog_coefficients)
    assert frames.check_mu in called
    assert not {frames._angles, frames.angle_arrays} & called


def test_all_lists_every_public_name():
    """A star import gets every public name that framestream binds,
    submodules aside, each once."""
    import framestream
    public = [name for name, obj in vars(framestream).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)]
    assert sorted(framestream.__all__) == sorted(public)
