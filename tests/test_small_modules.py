"""Coverage for the small support modules: names, pretty-printer, errors."""

import pytest

from repro.codegen.names import func_name, operand_py, var_name
from repro.ewops import py_literal
from repro.errors import DiagnosticError, OtterError, SourceLocation
from repro.ir.nodes import ColonSub, Const, StrConst, Temp, Var
from repro.ir.pretty import pretty_ir


class TestNames:
    def test_var_mangling(self):
        assert var_name("x") == "v_x"
        assert var_name("lambda") == "v_lambda"

    def test_func_mangling(self):
        assert func_name("f") == "fn_f"

    def test_const_rendering(self):
        assert py_literal(3.0) == "3.0"
        assert py_literal(complex(0, 2)) == "2j"
        assert py_literal(complex(1.5, 0)) == "1.5"

    def test_operand_py_forms(self):
        assert operand_py(Var("a")) == "v_a"
        assert operand_py(Temp(4)) == "ML_tmp4"
        assert operand_py(Const(2.0)) == "2.0"
        assert operand_py(StrConst("hi")) == "'hi'"

    def test_global_redirect(self):
        assert operand_py(Var("g"), globals_={"g"}) == "rt.globals['g']"

    def test_unknown_operand_rejected(self):
        with pytest.raises(TypeError):
            operand_py(ColonSub())


class TestPrettyIR:
    def test_full_program_dump(self):
        from repro.compiler import compile_source
        from repro.frontend.mfile import DictProvider

        prog = compile_source("""
x = 1;
if x > 0
    y = helper(x);
else
    y = 0;
end
for i = 1:3
    y = y + i;
end
while y > 100
    y = y / 2;
end
switch x
case 1
    z = 1;
otherwise
    z = 0;
end
a = zeros(2, 2);
a(1, 1) = 5;
disp(y)
""", provider=DictProvider({
            "helper": "function y = helper(x)\ny = x * 2;"}))
        text = prog.ir_dump()
        for marker in ("program script", "if ", "for ", "while:",
                       "function [y] = helper(x):", "[guarded]",
                       "ML_builtin:disp"):
            assert marker in text, marker


class TestErrors:
    def test_hierarchy(self):
        from repro.errors import (
            CodegenError,
            InferenceError,
            LexError,
            LoweringError,
            MatlabRuntimeError,
            MpiError,
            ParseError,
            ResolutionError,
        )

        for cls in (LexError, ParseError, ResolutionError, InferenceError,
                    LoweringError, CodegenError):
            assert issubclass(cls, DiagnosticError)
            assert issubclass(cls, OtterError)
        for cls in (MatlabRuntimeError, MpiError):
            assert issubclass(cls, OtterError)

    def test_diagnostic_message_attribute(self):
        err = DiagnosticError("boom", SourceLocation("f.m", 2, 3))
        assert err.message == "boom"
        assert "f.m:2:3" in str(err)

    def test_default_location(self):
        err = DiagnosticError("x")
        assert err.loc.filename == "<script>"
