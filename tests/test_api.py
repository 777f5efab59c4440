"""The public surface: every __all__ name exists, and the command options
and entry-point parameters are the ones documented, so a retired knob
(such as --band-gap or export --length) cannot come back unnoticed."""

import argparse
import importlib
import inspect
import pkgutil

import pytest

import icofold
from icofold import cages, cli, configs, engine, export, groups, onion, verify

MODULES = ["icofold"] + [
    f"icofold.{info.name}" for info in pkgutil.iter_modules(icofold.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


OPTIONS = {
    "group-info": ["--out"],
    "configs": ["--config", "--out"],
    "pentagon": ["--length", "--direction", "--emit", "--out"],
    "extend": ["--config", "--axis", "--length", "--depth", "--emit",
               "--bond-scale", "--out"],
    "classify": ["--config", "--axis", "--scan", "--out"],
    "onion": ["--config", "--axis", "--length", "--depth", "--bond-scale",
              "--out"],
    "verify": ["--only", "--out"],
    "export": ["--config", "--emit", "--bond-scale", "--out"],
}


def test_command_options_are_pinned():
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {
        name: [flag for action in sub._actions
               for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for name, sub in commands.items()
    }
    assert options == OPTIONS


PARAMETERS = [
    (configs.StartConfig, ["name", "vertices", "symmetry"]),
    (engine.generate_array, ["start", "translation", "depth"]),
    (engine.build_shells, ["den", "va", "vb", "index", "dtype"]),
    (groups.PointGroup.orbits, ["self", "den", "rows"]),
    (engine.bands, ["array"]),
    (engine.classify_length, ["start", "translation", "depth", "with_cage"]),
    (engine.classify_scan, ["start", "folds", "spec"]),
    (onion.build_onion, ["start", "translation", "iterations"]),
    (cages.CageGraph, ["coords", "pairs", "cutoff"]),
    (cages.trivalence_threshold_search, ["groups"]),
    (cages.detect_cage, ["shell_groups"]),
    (cages.similar_up_to_scale, ["a_points", "b_points"]),
    (verify.render_table, ["results"]),
    (export.canonical_json, ["payload"]),
    (export.export_xyz, ["points", "comment", "bond_scale"]),
    (export.export_off, ["graph", "census", "bond_scale"]),
]


@pytest.mark.parametrize("func,names", PARAMETERS,
                         ids=[f"{f.__module__}.{f.__name__}"
                              for f, _ in PARAMETERS])
def test_entry_point_parameters_are_pinned(func, names):
    assert list(inspect.signature(func).parameters) == names
