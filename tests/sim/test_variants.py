"""Predictor variants: canonical labels, checking, keys and the wire."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.wire import WireError
from repro.cli import build_parser, main
from repro.core.config import CoreConfig
from repro.mdp.phast import PHASTPredictor
from repro.server.jobs import validate_names
from repro.sim.backends import get_backend
from repro.sim.simulator import (
    make_predictor,
    parse_predictor,
    predictor_variant,
    register_predictor,
    simulate,
    unregister_predictor,
)
from repro.sim.spec import RunSpec

#: Malformed labels, each with the reason it must be refused.
BAD_LABELS = [
    "phast(target_bits=0 )",  # a space: not canonical
    "phast(target_bits=0,sets_per_table=64)",  # unsorted: not canonical
    "phast(target_bits=5)",  # the default: canonical form is "phast"
    "phast()",  # no parameters: canonical form is "phast"
    "phast(bogus=1)",  # not a keyword of the factory
    "phast(target_bits=len)",  # not a literal
    "phast(target_bits='0')",  # a str is not a parameter type
    "phast(target_bits=0.5)",  # the default is an int
    "phast(0)",  # positional
    "ideal(strict=1)",  # the default is a bool
    "mdp-tage(history_lengths=(1,2.5))",  # tuples hold ints only
]


class TestCanonicalForm:
    def test_plain_name_is_its_own_label(self):
        assert parse_predictor("phast") == ("phast", {})
        assert predictor_variant("phast") == "phast"

    def test_variant_label_spelling(self):
        assert predictor_variant("phast", target_bits=0) == "phast(target_bits=0)"
        assert (
            predictor_variant("phast", target_bits=0, sets_per_table=64)
            == "phast(sets_per_table=64,target_bits=0)"
        )
        assert (
            predictor_variant("phast", history_lengths=(0, 8, 32))
            == "phast(history_lengths=(0,8,32))"
        )
        assert predictor_variant("ideal", strict=False) == "ideal(strict=False)"

    def test_defaults_are_dropped(self):
        assert predictor_variant("unlimited-phast", max_history=None) == (
            "unlimited-phast"
        )
        assert predictor_variant("mdp-tage-s", total_entries=4096) == "mdp-tage-s"

    def test_error_names_the_canonical_form(self):
        with pytest.raises(ValueError, match=r"write 'phast\(target_bits=0\)'"):
            parse_predictor("phast(target_bits=0 )")

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_bad_labels_are_refused(self, label):
        with pytest.raises(ValueError):
            parse_predictor(label)

    def test_unknown_base_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            parse_predictor("phasst(target_bits=0)")

    def test_make_predictor_builds_the_variant(self):
        predictor = make_predictor("phast(sets_per_table=64,target_bits=0)")
        expected = PHASTPredictor(sets_per_table=64, target_bits=0)
        assert predictor.storage_kb() == expected.storage_kb()
        assert predictor._target_bits == 0


class TestRefusedAtTheBoundaries:
    @pytest.mark.parametrize("label", BAD_LABELS + ["phasst"])
    def test_cli_refuses(self, label, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--predictors", f"phast,{label}", "--subset", "1"])
        assert excinfo.value.code not in (0, None)

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_validate_names_refuses(self, label):
        with pytest.raises(WireError) as excinfo:
            validate_names([RunSpec("511.povray", label, num_ops=600)])
        assert excinfo.value.field == "predictor"

    def test_validate_names_accepts_a_variant(self):
        validate_names([RunSpec("511.povray", "phast(target_bits=0)", num_ops=600)])

    @pytest.mark.parametrize("command", ["run", "probe", "sample"])
    def test_one_predictor_commands_check_the_label(self, command):
        parser = build_parser()
        args = parser.parse_args([command, "511.povray", "phast(target_bits=0)"])
        assert args.predictor == "phast(target_bits=0)"
        for label in BAD_LABELS + ["phasst"]:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, "511.povray", label])
            assert excinfo.value.code == 2

    def test_run_simulates_a_variant(self, capsys):
        argv = ["run", "511.povray", "phast(target_bits=0)", "--num-ops", "1500"]
        assert main(argv) == 0
        assert "phast(target_bits=0)" in capsys.readouterr().out


#: Generated variants: a registry factory plus parameters of the right type.
_variants = st.one_of(
    st.builds(
        lambda bits, sets, lengths: predictor_variant(
            "phast", target_bits=bits, sets_per_table=sets, history_lengths=lengths
        ),
        st.integers(0, 5),
        st.sampled_from([8, 32, 64, 128, 256]),
        st.lists(st.integers(0, 64), min_size=1, max_size=8, unique=True).map(
            lambda lengths: tuple(sorted(lengths))
        ),
    ),
    st.builds(
        lambda clamp: predictor_variant("unlimited-phast", max_history=clamp),
        st.one_of(st.none(), st.integers(1, 128)),
    ),
    st.builds(
        lambda branches: predictor_variant("unlimited-nosq", history_branches=branches),
        st.integers(0, 32),
    ),
    st.builds(
        lambda entries: predictor_variant("mdp-tage-s", total_entries=entries),
        st.sampled_from([512, 1024, 2048, 4096, 8192]),
    ),
    st.builds(lambda strict: predictor_variant("ideal", strict=strict), st.booleans()),
)


@given(label=_variants, seed=st.one_of(st.none(), st.integers(0, 2**31)))
def test_variant_survives_the_wire_with_its_key(label, seed):
    spec = RunSpec("511.povray", label, num_ops=5000, seed=seed)
    decoded = RunSpec.from_wire(spec.to_wire())
    assert decoded.predictor == label
    assert decoded.key() == spec.key()
    assert parse_predictor(label)[0] in label


def test_variant_results_are_labelled_and_backend_independent():
    # MDP-TAGE-S at 2048 entries folds its index to 6 bits, narrower than
    # a 7-bit history chunk.
    for label in ("phast(target_bits=0)", "mdp-tage-s(total_entries=2048)"):
        spec = RunSpec("511.povray", label, num_ops=2000)
        reference = simulate(spec.with_overrides(backend="reference"))
        batch = simulate(spec.with_overrides(backend="batch"))
        assert reference.predictor == label
        assert batch.to_record() == reference.to_record()


@pytest.fixture(scope="module")
def ablations():
    """The ablation predictors, registered for this module only (the golden
    fixtures pin the registry to the built-in names)."""
    from benchmarks.ablations import variants

    classes = (
        variants.PhastIncrementConfidence,
        variants.PhastNoConfidence,
        variants.PhastLengthN,
        variants.PhastAtDetection,
    )
    for cls in classes:
        register_predictor(cls.name, cls, replace=True)
    yield tuple(cls.name for cls in classes)
    for cls in classes:
        unregister_predictor(cls.name)


_ABLATION_NAMES = (
    "phast-increment-confidence",
    "phast-no-confidence",
    "phast-length-n",
    "phast-at-detection",
)
_CORES = (CoreConfig(), CoreConfig().with_wrong_path(24))


@settings(max_examples=20, deadline=None)
@given(
    label=st.one_of(_variants, st.sampled_from(_ABLATION_NAMES)),
    instance=st.booleans(),
    workload=st.sampled_from(["511.povray", "502.gcc_1"]),
    config=st.sampled_from(_CORES),
)
def test_batch_equals_reference_for_every_kind_of_spec(
    ablations, label, instance, workload, config
):
    """Variants, registered ablation names and predictor instances run on
    the batch backend's shared plan with the reference backend's result."""
    assert set(_ABLATION_NAMES) == set(ablations)

    def run(backend):
        predictor = make_predictor(label) if instance else label
        spec = RunSpec(workload, predictor, config=config, num_ops=1500, warmup_ops=200)
        return get_backend(backend).run(spec).to_record()

    assert run("batch") == run("reference")
