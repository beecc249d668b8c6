"""The generated kernels under AddressSanitizer and UBSan.

``generate_source``'s C for a plain spec, ``image_filter``'s group of
halo taps (its full kernel, its lean variant and its count variant) is
compiled into one executable with a generated driver, under
``-fsanitize=address,undefined -fno-sanitize-recover=all`` and the
engine's own flags (less ``-shared``/``-fPIC``).  Every array is
``malloc``'d to exactly its size, so a read or write one element past
an end is a report.  The driver calls each kernel over the shapes 1×1,
1×n, n×1, 3×4 and 256×256, the tap kernels at the shifts 0, ±1,
``cols − 1`` and ``rows − 1`` of each axis, and the count variant for
0–3 iterations — checking that it leaves what that many calls of the
lean kernel leave.  Any report exits the program non-zero.
"""

import subprocess

import pytest

from repro.compiler import compile_source
from repro.ir.nodes import EwGroup, group_spec
from repro.native import NativeEngine, find_compiler
from repro.native.codegen import generate_source, tap_count
from tests.corpus import shipped_programs

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
SHAPES = ((1, 1), (1, 7), (7, 1), (3, 4), (256, 256))
PLAIN = ("+", (".*", "@0", ("fn:sqrt", "@1")), 2.0)


@pytest.fixture(scope="module")
def toolchain(tmp_path_factory):
    """``(cc, flags)`` of an available engine whose compiler links the
    sanitizer runtimes (else the test is skipped, with the reason)."""
    if find_compiler() is None:
        pytest.skip("no C compiler")
    engine = NativeEngine(cache_dir=str(tmp_path_factory.mktemp("k")))
    if not engine.available:
        pytest.skip(f"native tier unavailable: {engine.unavailable_reason}")
    flags = [f for f in engine.flags if f not in ("-shared", "-fPIC")]
    work = tmp_path_factory.mktemp("asan")
    (work / "t.c").write_text("int main(void) { return 0; }\n")
    probe = subprocess.run([engine.cc, *SANITIZE, str(work / "t.c"), "-o",
                            str(work / "t")], capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("the sanitizer runtimes do not link: "
                    + probe.stderr.strip()[:200])
    return engine.cc, flags


def _image_group():
    """``image_filter``'s step: the group spec, as the emitted code
    holds it, and its ``carry``."""
    source, _ = shipped_programs()["e2e/image_filter"]
    program = compile_source(source)
    group = next(stmt for block in program.ir.walk() for stmt in block
                 if isinstance(stmt, EwGroup))
    members, _ = group_spec(group)
    return tuple((spec, slots) for spec, _, slots, _ in members), group.carry


def _shifts(rows: int, cols: int, ntaps: int) -> list[list[int]]:
    """Per shift case, ``ur, uc`` per tap: each axis at 0, ±1,
    ``cols - 1`` and ``rows - 1``, wrapped as ``circshift`` passes it."""
    cases = []
    for s in (0, 1, -1, cols - 1, rows - 1):
        case = []
        for t in range(ntaps):
            case += [(s if t % 2 else -s) % rows, (s if t < 2 else 0) % cols]
        cases.append(case)
        cases.append([v for t in range(ntaps)
                      for v in (s % rows if t == 0 else 0, s % cols)])
    return cases


def _driver(plain, group, lean, count, sig, nout_full, lean_outs,
            carry, ntaps) -> str:
    """The C ``main`` that calls every kernel over every case (what a
    guard returns does not matter here: ``image_filter``'s never fires,
    and the plain kernel's ``sqrt`` may)."""
    arrays = [i for i, kind in enumerate(sig) if kind == "a"]
    lines = [
        "#include <stdlib.h>", "#include <string.h>", "",
        "static double *fill(long n, long seed)", "{",
        "    double *p = malloc(n * sizeof(double));",
        "    long i;",
        "    for (i = 0; i < n; i++)",
        "        p[i] = (double)((i * 7 + seed * 13) % 23) / 11.0 - 0.5;",
        "    return p;", "}", "",
        "static int image(long rows, long cols, const long *u, long count)",
        "{",
        "    long n = rows * cols, k;",
        *[f"    double *a{i} = fill(n, {i});" for i in arrays],
        *[f"    double *f{k} = malloc(n * sizeof(double));"
          for k in range(nout_full)],
        *[f"    double *l{k} = malloc(n * sizeof(double));"
          for k in lean_outs],
        *[f"    double *c{k}_{j} = malloc(n * sizeof(double));"
          for k in lean_outs for j in (0, 1)],
        *[f"    double *w{slot} = fill(n, {slot});" for slot, _ in carry],
    ]
    scalars = {i: f"{0.08 + i}" for i, kind in enumerate(sig) if kind == "s"}
    taps = ", ".join(f"u[{j}]" for j in range(2 * ntaps))

    def operands(prefix="a"):
        return ", ".join(f"{prefix}{i}" if kind == "a" else scalars[i]
                         for i, kind in enumerate(sig))

    lines += [
        f"    (void){group}(rows, cols, "
        f"{', '.join(f'f{k}' for k in range(nout_full))}, {operands()}, "
        f"{taps});",
        # ``count`` calls of the lean kernel, each over the last's output
        *[f"    memcpy(w{slot}, a{slot}, n * sizeof(double));"
          for slot, _ in carry],
        "    for (k = 0; k < count; k++) {",
        f"        (void){lean}(rows, cols, "
        f"{', '.join(f'l{k}' for k in lean_outs)}, {operands('w')}, "
        f"{taps});",
        *[f"        memcpy(w{slot}, l{k}, n * sizeof(double));"
          for slot, k in carry],
        "    }",
        f"    (void){count}(count, rows, cols, "
        f"{', '.join(f'c{k}_0, c{k}_1' for k in lean_outs)}, "
        f"{operands()}, {taps});",
        # the count variant leaves what the lean calls left
        "    if (count > 0) {",
        *[f"        if (memcmp(count & 1 ? c{k}_0 : c{k}_1, w{slot}, "
          "n * sizeof(double)) != 0) return 99;"
          for slot, k in carry],
        "    }",
        *[f"    free(a{i});" for i in arrays],
        *[f"    free(f{k});" for k in range(nout_full)],
        *[f"    free(l{k}); free(c{k}_0); free(c{k}_1);" for k in lean_outs],
        *[f"    free(w{slot});" for slot, _ in carry],
        "    return 0;", "}", "",
        "static int plain(long n)", "{",
        "    double *a0 = fill(n, 1), *a1 = fill(n, 2), *out = malloc("
        "n * sizeof(double));",
        f"    (void){plain}(n, out, a0, a1);",
        "    free(a0); free(a1); free(out);",
        "    return 0;", "}", "",
        "int main(void)", "{",
        "    long count;",
    ]
    for rows, cols in SHAPES:
        lines.append(f"    if (plain({rows * cols})) return 1;")
        for case in _shifts(rows, cols, ntaps):
            lines += [
                "    {",
                f"        static const long u[] = {{{', '.join(map(str, case))}}};",
                "        for (count = 0; count <= 3; count++) {",
                f"            int rc = image({rows}, {cols}, u, count);",
                "            if (rc) return rc;",
                "        }",
                "    }",
            ]
    lines += ["    return 0;", "}", ""]
    return "\n".join(lines)


def test_every_kernel_variant_stays_inside_its_arrays(toolchain, tmp_path):
    cc, flags = toolchain
    gspec, carry = _image_group()
    assert carry is not None
    ntaps = tap_count(gspec)
    lean_outs = tuple(k for _, k in carry)
    sig = "as"          # ``img`` and ``tau``
    sources = [
        generate_source(PLAIN, "aa", "k_plain")[0],
        generate_source(gspec, sig, "k_group")[0],
        generate_source(gspec, sig, "k_lean", lean_outs)[0],
        generate_source(gspec, sig, "k_count", carry=carry)[0],
        _driver("k_plain", "k_group", "k_lean", "k_count", sig,
                len(gspec), lean_outs, carry, ntaps),
    ]
    (tmp_path / "kernels.c").write_text("\n".join(sources))
    build = subprocess.run(
        [cc, *flags, *SANITIZE, "-g", str(tmp_path / "kernels.c"), "-o",
         str(tmp_path / "kernels"), "-lm"],
        capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(tmp_path / "kernels")], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "runtime error" not in run.stderr
