"""The compiled kernels: equal Shapley maps on both paths, the wrappers' checks, the
fallback and the cache.  The medoid distance stripes' equality is in test_medoids.py."""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmmx
from lmmx import MedoidSet, _native, init_params, shapley_sampling
from lmmx.explain import GRAY, _blocks, prune
from lmmx.network import image_terms, pixel_mins
from lmmx.selftest import random_params

from strategies import walk_nets

@pytest.fixture(scope="module")
def library():
    found = _native.kernel()
    if found is None:
        pytest.skip(f"no compiled kernel here: {_native.status()}")
    return found


@pytest.fixture(scope="module")
def kernel(library):
    return library.shapley_block


def both_paths(params, x, permutations, seed):
    """The Shapley map's bytes on the native path and on the numpy pass."""
    native = shapley_sampling(params, x, permutations=permutations, seed=seed).scores.tobytes()
    with mock.patch.object(_native, "kernel", lambda: None):
        numpy = shapley_sampling(params, x, permutations=permutations, seed=seed).scores.tobytes()
    return native, numpy


def bench_shape_net(seed, medoid):
    """(params, x) at P = 784, H1 = 25, C = 2: uint16 draws, and about a dozen kept neurons."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 256, (25, 784)) / 255.0
    if medoid:
        params = init_params(MedoidSet(vectors, np.arange(25) % 2, np.arange(25)), 5.0)
    else:
        params = random_params(rng, 784, 25, 2)
    return params, np.clip(vectors[rng.integers(25)] + rng.integers(-20, 21, 784) / 255.0, 0, 1)


@pytest.mark.parametrize("walk_seed", [0, 7])
@pytest.mark.parametrize("permutations", [1, 7, 256, 257, 600, 1100])
class TestBothPaths:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_equal_maps_on_tie_heavy_nets(self, kernel, permutations, walk_seed, data):
        params, (x,) = data.draw(walk_nets(n_rows=1))
        native, numpy = both_paths(params, x, permutations, walk_seed)
        assert native == numpy

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), medoid=st.booleans())
    def test_equal_maps_on_bench_shape_nets(self, kernel, permutations, walk_seed, seed, medoid):
        params, x = bench_shape_net(seed, medoid)
        native, numpy = both_paths(params, x, permutations, walk_seed)
        assert native == numpy


def walk_tables(params, x, permutations, seed):
    """``shapley_sampling``'s kernel arguments: (terms, low, gray_logit, blocks).

    ``terms`` is the (2, P, kept) table the kernel reads, ``low`` its mask
    of the terms that can set a min, and ``blocks`` the (block, keys) pairs
    of ``_blocks``.
    """
    _, at_image, _, logits = image_terms(params, x)
    out_bias = params.maxplus_weights[:, np.argmax(logits)]
    at_gray = pixel_mins(params, np.full(params.n_pixels, GRAY))
    keep, bound = prune(np.minimum(at_gray, at_image), np.maximum(at_gray, at_image), out_bias)
    terms = np.stack([at_gray[keep].T, at_image[keep].T]) + out_bias[keep]
    low = terms <= bound + out_bias[keep]
    blocks = _blocks(seed, params.n_pixels, permutations, at_gray, keep,
                     np.count_nonzero(low[0], axis=0), np.flatnonzero(low[1].any(axis=1)))
    return terms, low, terms[0].min(axis=0).max(), list(blocks)


def kernel_credits(kernel, terms, gray_logit, blocks):
    credits = np.zeros(terms.shape[1] + 1)
    for block, keys in blocks:
        kernel(block, keys, terms, gray_logit, credits)
    return credits


class TestMasking:
    """Every term the kernel reads at an event is a real term of the state, so an
    unmarked term, at +inf or at its own value, never sets what it returns."""

    def assert_unmasked_equal(self, kernel, params, x, permutations):
        terms, low, gray_logit, blocks = walk_tables(params, x, permutations, 5)
        credits = kernel_credits(kernel, terms, gray_logit, blocks)
        assert (credits[:-1] / permutations).tobytes() == shapley_sampling(
            params, x, permutations=permutations, seed=5).scores.tobytes()
        masked = kernel_credits(kernel, np.where(low, terms, np.inf), gray_logit, blocks)
        assert masked.tobytes() == credits.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from([9, 300]))
    def test_on_tie_heavy_nets(self, kernel, data, permutations):
        params, (x,) = data.draw(walk_nets(n_rows=1))
        self.assert_unmasked_equal(kernel, params, x, permutations)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), medoid=st.booleans())
    def test_on_bench_shape_nets(self, kernel, seed, medoid):
        self.assert_unmasked_equal(kernel, *bench_shape_net(seed, medoid), 300)


class TestKeys:
    """The kernel reads its keys as a set: any order and any repeats give the same credits."""

    def assert_as_a_set(self, kernel, terms, gray_logit, blocks, rng):
        unique = kernel_credits(kernel, terms, gray_logit,
                                [(block, np.unique(keys)) for block, keys in blocks])
        shuffled = kernel_credits(kernel, terms, gray_logit,
                                  [(block, rng.permutation(np.concatenate([keys, keys[::3]])))
                                   for block, keys in blocks])
        assert kernel_credits(kernel, terms, gray_logit, blocks).tobytes() == unique.tobytes()
        assert shuffled.tobytes() == unique.tobytes()

    def test_a_gray_record_that_is_a_hit(self, kernel):
        params, x = bench_shape_net(4, True)
        terms, _, gray_logit, blocks = walk_tables(params, x, 300, 0)
        assert all(np.unique(keys).size < keys.size for _, keys in blocks)
        self.assert_as_a_set(kernel, terms, gray_logit, blocks, np.random.default_rng(1))

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.sampled_from([9, 300]), st.integers(0, 2 ** 32 - 1))
    def test_on_tie_heavy_nets(self, kernel, data, permutations, shuffle):
        params, (x,) = data.draw(walk_nets(n_rows=1))
        terms, _, gray_logit, blocks = walk_tables(params, x, permutations, 5)
        self.assert_as_a_set(kernel, terms, gray_logit, blocks, np.random.default_rng(shuffle))


class TestKernelErrors:
    """Each index the kernel reads is checked: a bad one raises, and no credit turns non-finite."""

    @pytest.fixture
    def args(self):
        rng = np.random.default_rng(3)
        block = np.stack([rng.permutation(10) for _ in range(3)]).astype(np.uint8)
        inv = np.argsort(block, axis=1)
        hit = np.arange(0, 30, 10) + inv[:, 2]                  # pixel 2 in each permutation
        return dict(block=block, keys=np.concatenate([[14, 0], hit, [14]]),
                    terms=rng.uniform(-1, 1, (2, 10, 4)), gray_logit=0.25, credits=np.zeros(11))

    def raises(self, kernel, args):
        with pytest.raises(ValueError):
            kernel(**args)
        assert np.isfinite(args["credits"]).all()

    def test_valid_arguments_run(self, kernel, args):
        kernel(**args)
        assert np.isfinite(args["credits"]).all() and args["credits"].any()

    def test_record_past_the_block(self, kernel, args):
        args["keys"] = np.array([0, 3 * 10])
        self.raises(kernel, args)

    def test_negative_key(self, kernel, args):
        args["keys"] = np.array([0, -1])
        self.raises(kernel, args)

    def test_drawn_pixel_past_the_pixels(self, kernel, args):
        args["block"][1, 4] = 10            # position 4 of permutation 1 is key 14
        self.raises(kernel, args)

    @pytest.mark.parametrize("shape", [(2, 11, 4), (3, 10, 4), (2, 10), (10, 4)])
    def test_terms_of_another_shape(self, kernel, args, shape):
        args["terms"] = np.zeros(shape)
        self.raises(kernel, args)


class TestStripeErrors:
    """The stripe wrapper checks its arrays and rows before the kernel runs, which checks none."""

    @pytest.fixture
    def args(self):
        units = np.random.default_rng(5).integers(0, 256, (10, 7)).astype(np.uint8)
        return dict(units=units, dist=np.full((10, 10), 7, np.uint8), i0=0, i1=10)

    def raises(self, library, args):
        with pytest.raises(ValueError, match="Chebyshev stripe"):
            library.chebyshev_stripe(**args)
        assert (args["dist"] == 7).all()        # the kernel wrote nothing

    def test_valid_arguments_run(self, library, args):
        library.chebyshev_stripe(**args)
        units = args["units"].astype(np.int64)
        assert np.array_equal(args["dist"], np.abs(units[:, None] - units[None]).max(axis=2))

    @pytest.mark.parametrize("field, dtype", [("units", np.int64), ("units", np.float64),
                                              ("dist", np.int8), ("dist", np.uint16)])
    def test_wrong_dtype(self, library, args, field, dtype):
        args[field] = args[field].astype(dtype)
        self.raises(library, args)

    @pytest.mark.parametrize("field, index", [
        ("units", np.s_[:9]), ("units", np.s_[None]), ("units", np.s_[:, ::2]),
        ("dist", np.s_[:9]), ("dist", np.s_[:, :9]), ("dist", np.s_[::-1]), ("dist", np.s_[0])])
    def test_wrong_shape_or_layout(self, library, args, field, index):
        args[field] = args[field][index]
        self.raises(library, args)

    @pytest.mark.parametrize("i0, i1", [(-1, 5), (5, 5), (6, 5), (0, 11), (10, 11)])
    def test_rows_out_of_range(self, library, args, i0, i1):
        args.update(i0=i0, i1=i1)
        self.raises(library, args)


def test_source_compiles_with_every_warning_an_error(tmp_path):
    cc = sysconfig.get_config_var("CC")
    command = shlex.split(cc) if cc else []
    if not command or shutil.which(command[0]) is None:
        pytest.skip("no C compiler here")
    proc = subprocess.run(command + ["-Wall", "-Wextra", "-Werror", *_native._FLAGS, "-o",
                                     str(tmp_path / "kernel.so"), str(_native.SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")


class TestFallback:
    def test_fallback_keeps_the_maps(self, kernel, monkeypatch):
        rng = np.random.default_rng(12)
        params = random_params(rng, 30, 6, 2)
        images = rng.uniform(0, 1, (4, 30))
        maps = [shapley_sampling(params, x, permutations=300, seed=3).scores.tobytes()
                for x in images]
        monkeypatch.setattr(_native, "_load", lambda: (None, "numpy (no compiler)"))
        assert [shapley_sampling(params, x, permutations=300, seed=3).scores.tobytes()
                for x in images] == maps


class TestFallbackReasons:
    @pytest.fixture(autouse=True)
    def private_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

    def test_no_compiler(self, monkeypatch, capsys):
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native._load.__wrapped__() == (None, "numpy (no compiler)")
        assert capsys.readouterr() == ("", "")

    def test_compile_failure_is_silent(self, tmp_path, monkeypatch, capsys):
        # a compiler that exists and fails, on any host: the interpreter exiting 1
        failing = shlex.join([sys.executable, "-c", "raise SystemExit(1)"])
        config = sysconfig.get_config_var
        monkeypatch.setattr(_native.sysconfig, "get_config_var",
                            lambda name: failing if name == "CC" else config(name))
        assert _native._load.__wrapped__() == (None, "numpy (compile failed)")
        assert capsys.readouterr() == ("", "")
        assert [p.name for p in (tmp_path / "lmmx").iterdir()] == []    # no temporary left


def package_run(cache: Path, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout, with its cache under ``cache``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lmmx.__file__)))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)


STATUS = "from lmmx import _native; print(_native.status())"


class TestCache:
    def test_compiled_once_then_loaded(self, kernel, tmp_path):
        first = package_run(tmp_path, STATUS)
        assert (first.returncode, first.stderr) == (0, "")
        (library,) = (tmp_path / "lmmx").iterdir()           # no temporary file left
        assert first.stdout == f"native ({library})\n"
        assert (tmp_path / "lmmx").stat().st_mode & 0o777 == 0o700
        built, whole = library.stat(), library.read_bytes()
        second = package_run(tmp_path, STATUS)
        assert (second.returncode, second.stdout, second.stderr) == (0, first.stdout, "")
        assert (library.stat().st_ino, library.read_bytes()) == (built.st_ino, whole)
        assert library.stat().st_mtime_ns >= built.st_mtime_ns     # the load marks it used

    @pytest.fixture
    def sources(self, tmp_path, monkeypatch):
        """Load the library of the real ``SOURCE`` or of an edited copy, in a private cache;
        returns (load, compiled), ``compiled`` listing each build's source."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        edited = tmp_path / "_native.c"
        edited.write_text(_native.SOURCE.read_text() + "/* another version */\n")
        real, compile_, compiled = _native.SOURCE, _native._compile, []

        def counting(command, directory):
            compiled.append(_native.SOURCE)
            return compile_(command, directory)

        def load(source):
            monkeypatch.setattr(_native, "SOURCE", {"real": real, "edited": edited}[source])
            found, status = _native._load.__wrapped__()
            assert found is not None
            return Path(status[len("native ("):-1])

        monkeypatch.setattr(_native, "_compile", counting)
        return load, compiled

    def test_two_sources_in_turn_compile_once_each(self, kernel, tmp_path, sources):
        load, compiled = sources
        first = {source: load(source) for source in ("real", "edited")}
        inodes = {source: path.stat().st_ino for source, path in first.items()}
        for source in ("real", "edited", "real", "edited"):
            path = load(source)
            assert (path, path.stat().st_ino) == (first[source], inodes[source])
        assert len(compiled) == 2
        assert set((tmp_path / "lmmx").iterdir()) == set(first.values())

    def test_a_build_keeps_its_tags_libraries_used_last(self, kernel, tmp_path, sources):
        load, compiled = sources
        used = load("edited")
        tag = used.name.split("-")[1]
        cache = used.parent
        older = [cache / f"_native-{tag}-{i:016x}.so" for i in range(3)]    # least recent first
        for age, path in enumerate(older):
            path.write_bytes(b"an older build\n")
            os.utime(path, ns=(10 ** 18 + age, 10 ** 18 + age))
        untagged = cache / "_native-42364320e5c88995.so"        # an older lmmx's name
        other = cache / "_native-othertag-0123456789abcdef.so"   # another interpreter's
        for path in (untagged, other):
            path.write_bytes(b"a library\n")
        os.utime(used, ns=(10 ** 18 - 1, 10 ** 18 - 1))      # built before all of them
        assert load("edited") == used                           # but used since
        fresh = load("real")
        assert len(compiled) == 2
        assert set(cache.iterdir()) == {fresh, used, *older[1:], other}

    def test_truncated_library_is_rebuilt(self, kernel, tmp_path):
        first = package_run(tmp_path, STATUS)
        (library,) = (tmp_path / "lmmx").iterdir()
        whole = library.read_bytes()
        library.write_bytes(whole[:len(whole) // 2])
        again = package_run(tmp_path, STATUS + "; _native.kernel()")
        assert (again.returncode, again.stdout, again.stderr) == (0, first.stdout, "")
        assert library.stat().st_size == len(whole)

    @pytest.mark.parametrize("blocker", ["file", "shared directory"])
    def test_unusable_cache_compiles_into_a_temporary_directory(self, kernel, tmp_path, blocker):
        cache = tmp_path / "lmmx"
        if blocker == "file":
            cache.write_text("not a directory\n")
        else:
            cache.mkdir()
            cache.chmod(0o777)
        proc = package_run(tmp_path, STATUS)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "native (compiled into a temporary directory: cache unwritable)\n"
        assert cache.is_file() or list(cache.iterdir()) == []

    def test_import_compiles_nothing(self, tmp_path):
        proc = package_run(tmp_path, "import lmmx, lmmx.cli; from lmmx import _native; "
                                     "print(_native._load.cache_info().currsize)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
        assert list(tmp_path.iterdir()) == []
