#include "kclc/lower.h"

#include <bit>
#include <cmath>
#include <map>

#include "common/bits.h"
#include "common/logging.h"

namespace bifsim::kclc {

namespace {

using bif::Op;

/** A typed value held in a virtual register. */
struct Value
{
    uint32_t vreg = kNoVReg;
    Type type;
};

/** An assignable location. */
struct LValue
{
    enum class Kind { Var, GlobalMem, LocalMem };

    Kind kind = Kind::Var;
    std::string var;          ///< Var: variable name.
    uint32_t addrVreg = kNoVReg;   ///< Mem: byte address (vreg).
    int32_t addrImm = 0;           ///< Mem: byte offset.
    Scalar elem = Scalar::Int;
};

class Lowering
{
  public:
    explicit Lowering(const Kernel &k) : kernel_(k) {}

    LFunc
    run()
    {
        func_.name = kernel_.name;
        newBlock();

        // Kernel arguments arrive through the job's argument table:
        // one LdArg per parameter (constant reads in the Fig. 12
        // breakdown), loaded in the entry block.
        scopes_.emplace_back();
        for (size_t i = 0; i < kernel_.params.size(); ++i) {
            const Param &p = kernel_.params[i];
            ArgInfo ai;
            ai.name = p.name;
            ai.isBuffer = p.type.isPointer;
            func_.args.push_back(ai);
            uint32_t v = func_.newVReg();
            emit(Op::LdArg, v, LOperand::none(), LOperand::none(),
                 LOperand::none(), static_cast<int32_t>(i));
            declare(p.name, Variable{v, p.type});
        }

        for (const StmtPtr &s : kernel_.body)
            stmt(*s);
        setTerm(TermKind::Return);
        scopes_.pop_back();
        return std::move(func_);
    }

  private:
    struct Variable
    {
        uint32_t vreg;
        Type type;
    };

    struct LocalArray
    {
        uint32_t offset;   ///< Byte offset in local memory.
        Scalar elem;
        uint32_t size;     ///< Element count.
    };

    const Kernel &kernel_;
    LFunc func_;
    uint32_t cur_ = 0;
    bool terminated_ = false;
    std::vector<std::map<std::string, Variable>> scopes_;
    std::map<std::string, LocalArray> localArrays_;
    int line_ = 0;

    [[noreturn]] void
    err(const std::string &msg) const
    {
        simError("kcl line %d: %s", line_, msg.c_str());
    }

    // ------------------------------------------------ block plumbing

    uint32_t
    newBlock()
    {
        func_.blocks.emplace_back();
        cur_ = static_cast<uint32_t>(func_.blocks.size() - 1);
        terminated_ = false;
        return cur_;
    }

    /** Starts a known block (created earlier with reserveBlock). */
    void
    switchTo(uint32_t b)
    {
        cur_ = b;
        terminated_ = false;
    }

    uint32_t
    reserveBlock()
    {
        func_.blocks.emplace_back();
        return static_cast<uint32_t>(func_.blocks.size() - 1);
    }

    void
    emit(Op op, uint32_t dst, LOperand a, LOperand b, LOperand c,
         int32_t imm = 0)
    {
        if (terminated_)
            return;   // Unreachable code after return.
        LInstr in;
        in.op = op;
        in.dst = dst;
        in.src[0] = a;
        in.src[1] = b;
        in.src[2] = c;
        in.imm = imm;
        func_.blocks[cur_].instrs.push_back(in);
    }

    void
    setTerm(TermKind kind, uint32_t cond = kNoVReg, uint32_t t0 = 0,
            uint32_t t1 = 0)
    {
        if (terminated_)
            return;
        LBlock &b = func_.blocks[cur_];
        b.term = kind;
        b.condVreg = cond;
        b.target0 = t0;
        b.target1 = t1;
        terminated_ = true;
    }

    // --------------------------------------------------- symbol table

    void
    declare(const std::string &name, Variable v)
    {
        if (scopes_.back().count(name))
            err("redefinition of '" + name + "'");
        scopes_.back()[name] = v;
    }

    Variable *
    findVar(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    // ------------------------------------------------------ constants

    Value
    constInt(int64_t v, Scalar s = Scalar::Int)
    {
        uint32_t dst = func_.newVReg();
        if (fitsSigned(v, 24)) {
            emit(Op::MovImm, dst, LOperand::none(), LOperand::none(),
                 LOperand::none(), static_cast<int32_t>(v));
        } else {
            uint32_t idx = func_.internRom(static_cast<uint32_t>(v));
            emit(Op::LdRom, dst, LOperand::none(), LOperand::none(),
                 LOperand::none(), static_cast<int32_t>(idx));
        }
        return {dst, Type::scalarType(s)};
    }

    Value
    constFloat(float f)
    {
        uint32_t bits = std::bit_cast<uint32_t>(f);
        uint32_t dst = func_.newVReg();
        if (bits == 0) {
            emit(Op::MovImm, dst, LOperand::none(), LOperand::none(),
                 LOperand::none(), 0);
        } else {
            uint32_t idx = func_.internRom(bits);
            emit(Op::LdRom, dst, LOperand::none(), LOperand::none(),
                 LOperand::none(), static_cast<int32_t>(idx));
        }
        return {dst, Type::scalarType(Scalar::Float)};
    }

    // ---------------------------------------------------- conversions

    Value
    convert(Value v, Scalar to)
    {
        Scalar from = v.type.scalar;
        if (v.type.isPointer)
            err("cannot convert pointer value");
        if (from == to)
            return v;
        // Bool is an int 0/1.
        if ((from == Scalar::Bool && (to == Scalar::Int ||
                                      to == Scalar::Uint)) ||
            (from == Scalar::Int && to == Scalar::Uint) ||
            (from == Scalar::Uint && to == Scalar::Int)) {
            v.type = Type::scalarType(to);
            return v;
        }
        uint32_t dst = func_.newVReg();
        if (to == Scalar::Float) {
            emit(from == Scalar::Uint ? Op::U2F : Op::I2F, dst,
                 LOperand::vreg(v.vreg), LOperand::none(),
                 LOperand::none());
            return {dst, Type::scalarType(Scalar::Float)};
        }
        if (from == Scalar::Float &&
            (to == Scalar::Int || to == Scalar::Uint)) {
            emit(to == Scalar::Uint ? Op::F2U : Op::F2I, dst,
                 LOperand::vreg(v.vreg), LOperand::none(),
                 LOperand::none());
            return {dst, Type::scalarType(to)};
        }
        if (to == Scalar::Bool) {
            Value zero = from == Scalar::Float ? constFloat(0.0f)
                                               : constInt(0);
            emit(from == Scalar::Float ? Op::FCmp : Op::ICmp, dst,
                 LOperand::vreg(v.vreg), LOperand::vreg(zero.vreg),
                 LOperand::none(),
                 static_cast<int32_t>(bif::CmpMode::Ne));
            return {dst, Type::scalarType(Scalar::Bool)};
        }
        err("unsupported conversion from " + v.type.str());
    }

    /** Usual arithmetic conversions for a binary operator. */
    Scalar
    promote(Value &a, Value &b)
    {
        if (a.type.isPointer || b.type.isPointer)
            err("pointer arithmetic outside indexing is not supported");
        Scalar sa = a.type.scalar, sb = b.type.scalar;
        if (sa == Scalar::Float || sb == Scalar::Float) {
            a = convert(a, Scalar::Float);
            b = convert(b, Scalar::Float);
            return Scalar::Float;
        }
        if (sa == Scalar::Uint || sb == Scalar::Uint) {
            a = convert(a, Scalar::Uint);
            b = convert(b, Scalar::Uint);
            return Scalar::Uint;
        }
        a = convert(a, Scalar::Int);
        b = convert(b, Scalar::Int);
        return Scalar::Int;
    }

    // ---------------------------------------------------- expressions

    Value
    expr(const Expr &e)
    {
        line_ = e.line;
        switch (e.kind) {
          case ExprKind::IntLit:
            return constInt(static_cast<int64_t>(e.intValue));
          case ExprKind::FloatLit:
            return constFloat(e.floatValue);
          case ExprKind::BoolLit:
            return {constInt(e.intValue ? 1 : 0).vreg,
                    Type::scalarType(Scalar::Bool)};
          case ExprKind::VarRef: {
            Variable *v = findVar(e.name);
            if (!v) {
                if (localArrays_.count(e.name))
                    err("local array '" + e.name +
                        "' used without subscript");
                err("undefined variable '" + e.name + "'");
            }
            return {v->vreg, v->type};
          }
          case ExprKind::Unary: return unary(e);
          case ExprKind::Binary: return binary(e);
          case ExprKind::Assign: return assign(e);
          case ExprKind::Ternary: return ternary(e);
          case ExprKind::Call: return call(e);
          case ExprKind::Index: return load(lvalueOf(e));
          case ExprKind::Cast:
            return convert(expr(*e.children[0]), e.castType.scalar);
          case ExprKind::IncDec: return incDec(e);
        }
        err("bad expression");
    }

    Value
    unary(const Expr &e)
    {
        if (e.op == "+")
            return expr(*e.children[0]);
        Value a = expr(*e.children[0]);
        uint32_t dst = func_.newVReg();
        if (e.op == "-") {
            if (a.type.scalar == Scalar::Float) {
                emit(Op::FNeg, dst, LOperand::vreg(a.vreg),
                     LOperand::none(), LOperand::none());
                return {dst, a.type};
            }
            a = convert(a, a.type.scalar == Scalar::Uint ? Scalar::Uint
                                                         : Scalar::Int);
            emit(Op::ISub, dst, LOperand::special(bif::kSrZero),
                 LOperand::vreg(a.vreg), LOperand::none());
            return {dst, a.type};
        }
        if (e.op == "~") {
            if (a.type.scalar == Scalar::Float)
                err("'~' on float");
            emit(Op::INot, dst, LOperand::vreg(a.vreg), LOperand::none(),
                 LOperand::none());
            return {dst, a.type};
        }
        if (e.op == "!") {
            Value b = convert(a, Scalar::Bool);
            Value zero = constInt(0);
            emit(Op::ICmp, dst, LOperand::vreg(b.vreg),
                 LOperand::vreg(zero.vreg), LOperand::none(),
                 static_cast<int32_t>(bif::CmpMode::Eq));
            return {dst, Type::scalarType(Scalar::Bool)};
        }
        err("bad unary operator '" + e.op + "'");
    }

    Value
    binary(const Expr &e)
    {
        const std::string &op = e.op;
        if (op == "&&" || op == "||")
            return shortCircuit(e);

        Value a = expr(*e.children[0]);
        Value b = expr(*e.children[1]);
        return binaryValues(op, a, b);
    }

    Value
    binaryValues(const std::string &op, Value a, Value b)
    {
        uint32_t dst = func_.newVReg();

        // Comparisons.
        static const std::map<std::string, bif::CmpMode> cmps = {
            {"==", bif::CmpMode::Eq}, {"!=", bif::CmpMode::Ne},
            {"<", bif::CmpMode::Lt},  {"<=", bif::CmpMode::Le},
            {">", bif::CmpMode::Gt},  {">=", bif::CmpMode::Ge},
        };
        if (auto it = cmps.find(op); it != cmps.end()) {
            Scalar s = promote(a, b);
            Op cop = s == Scalar::Float ? Op::FCmp
                   : s == Scalar::Uint ? Op::UCmp : Op::ICmp;
            emit(cop, dst, LOperand::vreg(a.vreg), LOperand::vreg(b.vreg),
                 LOperand::none(), static_cast<int32_t>(it->second));
            return {dst, Type::scalarType(Scalar::Bool)};
        }

        // Shifts keep the left operand's type.
        if (op == "<<" || op == ">>") {
            if (a.type.scalar == Scalar::Float ||
                b.type.scalar == Scalar::Float) {
                err("shift on float");
            }
            b = convert(b, Scalar::Int);
            Op sop = op == "<<" ? Op::IShl
                   : a.type.scalar == Scalar::Uint ? Op::IShr : Op::IAsr;
            emit(sop, dst, LOperand::vreg(a.vreg), LOperand::vreg(b.vreg),
                 LOperand::none());
            return {dst, a.type};
        }

        Scalar s = promote(a, b);
        bool is_f = s == Scalar::Float;
        bool is_u = s == Scalar::Uint;
        Op o;
        if (op == "+")
            o = is_f ? Op::FAdd : Op::IAdd;
        else if (op == "-")
            o = is_f ? Op::FSub : Op::ISub;
        else if (op == "*")
            o = is_f ? Op::FMul : Op::IMul;
        else if (op == "/") {
            if (is_f) {
                // FDiv lowers to reciprocal + multiply (as on Bifrost).
                uint32_t r = func_.newVReg();
                emit(Op::FRcp, r, LOperand::vreg(b.vreg),
                     LOperand::none(), LOperand::none());
                emit(Op::FMul, dst, LOperand::vreg(a.vreg),
                     LOperand::vreg(r), LOperand::none());
                return {dst, Type::scalarType(s)};
            }
            o = is_u ? Op::UDiv : Op::IDiv;
        } else if (op == "%") {
            if (is_f)
                err("'%%' on float");
            o = is_u ? Op::URem : Op::IRem;
        } else if (op == "&") {
            o = Op::IAnd;
        } else if (op == "|") {
            o = Op::IOr;
        } else if (op == "^") {
            o = Op::IXor;
        } else {
            err("bad binary operator '" + op + "'");
        }
        if (is_f && (op == "&" || op == "|" || op == "^"))
            err("bitwise operator on float");
        emit(o, dst, LOperand::vreg(a.vreg), LOperand::vreg(b.vreg),
             LOperand::none());
        return {dst, Type::scalarType(s)};
    }

    Value
    shortCircuit(const Expr &e)
    {
        bool is_and = e.op == "&&";
        uint32_t result = func_.newVReg();

        Value a = convert(expr(*e.children[0]), Scalar::Bool);
        uint32_t rhs_blk = reserveBlock();
        uint32_t skip_blk = reserveBlock();
        uint32_t end_blk = reserveBlock();
        if (is_and) {
            setTerm(TermKind::CondJump, a.vreg, rhs_blk, skip_blk);
        } else {
            setTerm(TermKind::CondJump, a.vreg, skip_blk, rhs_blk);
        }

        switchTo(rhs_blk);
        Value b = convert(expr(*e.children[1]), Scalar::Bool);
        emit(Op::Mov, result, LOperand::vreg(b.vreg), LOperand::none(),
             LOperand::none());
        setTerm(TermKind::Jump, kNoVReg, end_blk);

        switchTo(skip_blk);
        emit(Op::MovImm, result, LOperand::none(), LOperand::none(),
             LOperand::none(), is_and ? 0 : 1);
        setTerm(TermKind::Jump, kNoVReg, end_blk);

        switchTo(end_blk);
        return {result, Type::scalarType(Scalar::Bool)};
    }

    Value
    ternary(const Expr &e)
    {
        // Lowered with control flow so that memory accesses in the arms
        // stay guarded by the condition.
        uint32_t result = func_.newVReg();
        Value c = convert(expr(*e.children[0]), Scalar::Bool);
        uint32_t then_blk = reserveBlock();
        uint32_t else_blk = reserveBlock();
        uint32_t end_blk = reserveBlock();
        setTerm(TermKind::CondJump, c.vreg, then_blk, else_blk);

        switchTo(then_blk);
        Value a = expr(*e.children[1]);

        // Evaluate the other arm first to learn the result type.
        // (Type is decided by promoting both arms; evaluate else arm in
        // its block.)
        uint32_t after_then = cur_;
        switchTo(else_blk);
        Value b = expr(*e.children[2]);
        uint32_t after_else = cur_;

        Scalar s;
        {
            // Promotion without emitting into the wrong block: decide
            // the common type, then convert each arm in its own block.
            Scalar sa = a.type.scalar, sb = b.type.scalar;
            if (a.type.isPointer || b.type.isPointer)
                err("pointer in ternary");
            s = (sa == Scalar::Float || sb == Scalar::Float)
                    ? Scalar::Float
                    : (sa == Scalar::Uint || sb == Scalar::Uint)
                          ? Scalar::Uint
                          : Scalar::Int;
        }

        switchTo(after_then);
        Value ac = convert(a, s);
        emit(Op::Mov, result, LOperand::vreg(ac.vreg), LOperand::none(),
             LOperand::none());
        setTerm(TermKind::Jump, kNoVReg, end_blk);

        switchTo(after_else);
        Value bc = convert(b, s);
        emit(Op::Mov, result, LOperand::vreg(bc.vreg), LOperand::none(),
             LOperand::none());
        setTerm(TermKind::Jump, kNoVReg, end_blk);

        switchTo(end_blk);
        return {result, Type::scalarType(s)};
    }

    Value
    incDec(const Expr &e)
    {
        bool pre = e.op == "++pre" || e.op == "--pre";
        bool inc = e.op == "++pre" || e.op == "post++";
        const Expr &target = *e.children[0];
        if (target.kind != ExprKind::VarRef)
            err("++/-- target must be a variable");
        Variable *v = findVar(target.name);
        if (!v)
            err("undefined variable '" + target.name + "'");
        if (v->type.isPointer || v->type.scalar == Scalar::Float)
            err("++/-- on non-integer");

        uint32_t old = kNoVReg;
        if (!pre) {
            old = func_.newVReg();
            emit(Op::Mov, old, LOperand::vreg(v->vreg), LOperand::none(),
                 LOperand::none());
        }
        Value one = constInt(1);
        emit(inc ? Op::IAdd : Op::ISub, v->vreg, LOperand::vreg(v->vreg),
             LOperand::vreg(one.vreg), LOperand::none());
        return {pre ? v->vreg : old, v->type};
    }

    // --------------------------------------------------------- lvalues

    LValue
    lvalueOf(const Expr &e)
    {
        line_ = e.line;
        if (e.kind == ExprKind::VarRef) {
            if (!findVar(e.name)) {
                err("undefined variable '" + e.name + "'");
            }
            LValue lv;
            lv.kind = LValue::Kind::Var;
            lv.var = e.name;
            return lv;
        }
        if (e.kind != ExprKind::Index)
            err("expression is not assignable");

        const Expr &base = *e.children[0];
        const Expr &index = *e.children[1];
        if (base.kind != ExprKind::VarRef)
            err("subscript base must be a named pointer or local array");

        // Local array?
        auto la = localArrays_.find(base.name);
        if (la != localArrays_.end()) {
            Value idx = convert(expr(index), Scalar::Int);
            Value two = constInt(2);
            uint32_t addr = func_.newVReg();
            emit(Op::IShl, addr, LOperand::vreg(idx.vreg),
                 LOperand::vreg(two.vreg), LOperand::none());
            LValue lv;
            lv.kind = LValue::Kind::LocalMem;
            lv.addrVreg = addr;
            lv.addrImm = static_cast<int32_t>(la->second.offset);
            lv.elem = la->second.elem;
            return lv;
        }

        Variable *v = findVar(base.name);
        if (!v)
            err("undefined variable '" + base.name + "'");
        if (!v->type.isPointer)
            err("subscript on non-pointer '" + base.name + "'");

        Value idx = convert(expr(index), Scalar::Int);
        Value two = constInt(2);
        uint32_t off = func_.newVReg();
        emit(Op::IShl, off, LOperand::vreg(idx.vreg),
             LOperand::vreg(two.vreg), LOperand::none());
        if (v->type.space == AddrSpace::Local) {
            LValue lv;
            lv.kind = LValue::Kind::LocalMem;
            lv.addrVreg = off;
            lv.addrImm = 0;
            lv.elem = v->type.scalar;
            return lv;
        }
        uint32_t addr = func_.newVReg();
        emit(Op::IAdd, addr, LOperand::vreg(v->vreg), LOperand::vreg(off),
             LOperand::none());
        LValue lv;
        lv.kind = LValue::Kind::GlobalMem;
        lv.addrVreg = addr;
        lv.addrImm = 0;
        lv.elem = v->type.scalar;
        return lv;
    }

    Value
    load(const LValue &lv)
    {
        if (lv.kind == LValue::Kind::Var) {
            Variable *v = findVar(lv.var);
            return {v->vreg, v->type};
        }
        uint32_t dst = func_.newVReg();
        emit(lv.kind == LValue::Kind::GlobalMem ? Op::LdGlobal
                                                : Op::LdLocal,
             dst, LOperand::vreg(lv.addrVreg), LOperand::none(),
             LOperand::none(), lv.addrImm);
        return {dst, Type::scalarType(lv.elem)};
    }

    void
    store(const LValue &lv, Value v)
    {
        if (lv.kind == LValue::Kind::Var) {
            Variable *var = findVar(lv.var);
            Value cv = convert(v, var->type.scalar);
            emit(Op::Mov, var->vreg, LOperand::vreg(cv.vreg),
                 LOperand::none(), LOperand::none());
            return;
        }
        Value cv = convert(v, lv.elem);
        emit(lv.kind == LValue::Kind::GlobalMem ? Op::StGlobal
                                                : Op::StLocal,
             kNoVReg, LOperand::vreg(lv.addrVreg), LOperand::vreg(cv.vreg),
             LOperand::none(), lv.addrImm);
    }

    Value
    assign(const Expr &e)
    {
        const Expr &lhs = *e.children[0];
        const Expr &rhs = *e.children[1];
        LValue lv = lvalueOf(lhs);
        Value r;
        if (e.op == "=") {
            r = expr(rhs);
        } else {
            Value cur = load(lv);
            Value b = expr(rhs);
            std::string op(1, e.op[0]);   // "+", "-", "*"
            r = binaryValues(op, cur, b);
        }
        store(lv, r);
        return r;
    }

    // ----------------------------------------------------------- calls

    Value
    call(const Expr &e)
    {
        const std::string &n = e.name;
        auto argc = [&](size_t want) {
            if (e.children.size() != want)
                err(strfmt("%s expects %zu argument(s)", n.c_str(),
                           want));
        };
        auto dim_arg = [&]() -> uint32_t {
            argc(1);
            const Expr &d = *e.children[0];
            if (d.kind != ExprKind::IntLit || d.intValue > 2)
                err(n + " dimension must be a literal 0, 1 or 2");
            return static_cast<uint32_t>(d.intValue);
        };
        auto special2 = [&](uint32_t base, uint32_t d) {
            uint32_t dst = func_.newVReg();
            emit(Op::Mov, dst, LOperand::special(base + d),
                 LOperand::none(), LOperand::none());
            return Value{dst, Type::scalarType(Scalar::Int)};
        };

        if (n == "get_local_id")
            return special2(bif::kSrLocalIdX, dim_arg());
        if (n == "get_group_id")
            return special2(bif::kSrGroupIdX, dim_arg());
        if (n == "get_local_size")
            return special2(bif::kSrLocalSizeX, dim_arg());
        if (n == "get_global_size")
            return special2(bif::kSrGridSizeX, dim_arg());
        if (n == "get_num_groups")
            return special2(bif::kSrNumGroupsX, dim_arg());
        if (n == "get_global_id") {
            uint32_t d = dim_arg();
            // group_id * local_size + local_id
            uint32_t m = func_.newVReg();
            emit(Op::IMul, m, LOperand::special(bif::kSrGroupIdX + d),
                 LOperand::special(bif::kSrLocalSizeX + d),
                 LOperand::none());
            uint32_t dst = func_.newVReg();
            emit(Op::IAdd, dst, LOperand::vreg(m),
                 LOperand::special(bif::kSrLocalIdX + d),
                 LOperand::none());
            return {dst, Type::scalarType(Scalar::Int)};
        }
        if (n == "barrier") {
            // Argument (CLK_LOCAL_MEM_FENCE) optional and ignored.
            func_.usesBarrier = true;
            emit(Op::Barrier, kNoVReg, LOperand::none(), LOperand::none(),
                 LOperand::none());
            return constInt(0);
        }

        // Unary float builtins.
        static const std::map<std::string, Op> f1 = {
            {"sqrt", Op::FSqrt},   {"rsqrt", Op::FRsqrt},
            {"fabs", Op::FAbs},    {"floor", Op::FFloor},
            {"exp2", Op::FExp2},   {"log2", Op::FLog2},
            {"sin", Op::FSin},     {"cos", Op::FCos},
            {"native_recip", Op::FRcp},
        };
        if (auto it = f1.find(n); it != f1.end()) {
            argc(1);
            Value a = convert(expr(*e.children[0]), Scalar::Float);
            uint32_t dst = func_.newVReg();
            emit(it->second, dst, LOperand::vreg(a.vreg), LOperand::none(),
                 LOperand::none());
            return {dst, Type::scalarType(Scalar::Float)};
        }
        if (n == "exp" || n == "log") {
            argc(1);
            Value a = convert(expr(*e.children[0]), Scalar::Float);
            Value k = constFloat(n == "exp" ? 1.4426950408889634f
                                            : 0.6931471805599453f);
            uint32_t dst = func_.newVReg();
            if (n == "exp") {
                uint32_t m = func_.newVReg();
                emit(Op::FMul, m, LOperand::vreg(a.vreg),
                     LOperand::vreg(k.vreg), LOperand::none());
                emit(Op::FExp2, dst, LOperand::vreg(m), LOperand::none(),
                     LOperand::none());
            } else {
                uint32_t m = func_.newVReg();
                emit(Op::FLog2, m, LOperand::vreg(a.vreg),
                     LOperand::none(), LOperand::none());
                emit(Op::FMul, dst, LOperand::vreg(m),
                     LOperand::vreg(k.vreg), LOperand::none());
            }
            return {dst, Type::scalarType(Scalar::Float)};
        }
        if (n == "pow") {
            argc(2);
            Value a = convert(expr(*e.children[0]), Scalar::Float);
            Value b = convert(expr(*e.children[1]), Scalar::Float);
            uint32_t lg = func_.newVReg();
            emit(Op::FLog2, lg, LOperand::vreg(a.vreg), LOperand::none(),
                 LOperand::none());
            uint32_t m = func_.newVReg();
            emit(Op::FMul, m, LOperand::vreg(b.vreg), LOperand::vreg(lg),
                 LOperand::none());
            uint32_t dst = func_.newVReg();
            emit(Op::FExp2, dst, LOperand::vreg(m), LOperand::none(),
                 LOperand::none());
            return {dst, Type::scalarType(Scalar::Float)};
        }
        if (n == "fmin" || n == "fmax" || n == "min" || n == "max") {
            argc(2);
            Value a = expr(*e.children[0]);
            Value b = expr(*e.children[1]);
            Scalar s = promote(a, b);
            Op o;
            if (s == Scalar::Float)
                o = (n == "fmin" || n == "min") ? Op::FMin : Op::FMax;
            else if (s == Scalar::Uint)
                o = (n == "min" || n == "fmin") ? Op::UMin : Op::UMax;
            else
                o = (n == "min" || n == "fmin") ? Op::IMin : Op::IMax;
            uint32_t dst = func_.newVReg();
            emit(o, dst, LOperand::vreg(a.vreg), LOperand::vreg(b.vreg),
                 LOperand::none());
            return {dst, Type::scalarType(s)};
        }
        if (n == "abs") {
            argc(1);
            Value a = expr(*e.children[0]);
            if (a.type.scalar == Scalar::Float) {
                uint32_t dst = func_.newVReg();
                emit(Op::FAbs, dst, LOperand::vreg(a.vreg),
                     LOperand::none(), LOperand::none());
                return {dst, a.type};
            }
            a = convert(a, Scalar::Int);
            uint32_t neg = func_.newVReg();
            emit(Op::ISub, neg, LOperand::special(bif::kSrZero),
                 LOperand::vreg(a.vreg), LOperand::none());
            uint32_t dst = func_.newVReg();
            emit(Op::IMax, dst, LOperand::vreg(a.vreg), LOperand::vreg(neg),
                 LOperand::none());
            return {dst, Type::scalarType(Scalar::Int)};
        }
        if (n == "clamp") {
            argc(3);
            Value x = expr(*e.children[0]);
            Value lo = expr(*e.children[1]);
            Value hi = expr(*e.children[2]);
            Scalar s = promote(x, lo);
            hi = convert(hi, s);
            Op mx = s == Scalar::Float ? Op::FMax
                  : s == Scalar::Uint ? Op::UMax : Op::IMax;
            Op mn = s == Scalar::Float ? Op::FMin
                  : s == Scalar::Uint ? Op::UMin : Op::IMin;
            uint32_t t = func_.newVReg();
            emit(mx, t, LOperand::vreg(x.vreg), LOperand::vreg(lo.vreg),
                 LOperand::none());
            uint32_t dst = func_.newVReg();
            emit(mn, dst, LOperand::vreg(t), LOperand::vreg(hi.vreg),
                 LOperand::none());
            return {dst, Type::scalarType(s)};
        }
        if (n == "atomic_add") {
            argc(2);
            const Expr &ptr = *e.children[0];
            LValue lv = lvalueOf(ptr);
            if (lv.kind == LValue::Kind::Var)
                err("atomic_add needs a memory operand (p[i])");
            Value v = convert(expr(*e.children[1]), Scalar::Int);
            uint32_t dst = func_.newVReg();
            emit(lv.kind == LValue::Kind::GlobalMem ? Op::AtomAddG
                                                    : Op::AtomAddL,
                 dst, LOperand::vreg(lv.addrVreg), LOperand::vreg(v.vreg),
                 LOperand::none(), lv.addrImm);
            return {dst, Type::scalarType(Scalar::Int)};
        }
        if (n == "as_float") {
            argc(1);
            Value a = expr(*e.children[0]);
            return {a.vreg, Type::scalarType(Scalar::Float)};
        }
        if (n == "as_int" || n == "as_uint") {
            argc(1);
            Value a = expr(*e.children[0]);
            return {a.vreg, Type::scalarType(n == "as_int" ? Scalar::Int
                                                           : Scalar::Uint)};
        }
        err("unknown function '" + n + "'");
    }

    // ------------------------------------------------------ statements

    void
    stmt(const Stmt &s)
    {
        line_ = s.line;
        switch (s.kind) {
          case StmtKind::Block:
            scopes_.emplace_back();
            for (const StmtPtr &c : s.body)
                stmt(*c);
            scopes_.pop_back();
            break;
          case StmtKind::Decl: {
            uint32_t v = func_.newVReg();
            if (s.init) {
                Value init = convert(expr(*s.init), s.declType.scalar);
                emit(Op::Mov, v, LOperand::vreg(init.vreg),
                     LOperand::none(), LOperand::none());
            } else {
                emit(Op::MovImm, v, LOperand::none(), LOperand::none(),
                     LOperand::none(), 0);
            }
            declare(s.name, Variable{v, s.declType});
            break;
          }
          case StmtKind::LocalArray: {
            if (localArrays_.count(s.name) || findVar(s.name))
                err("redefinition of '" + s.name + "'");
            LocalArray la;
            la.offset = func_.localBytes;
            la.elem = s.declType.scalar;
            la.size = s.arraySize;
            localArrays_[s.name] = la;
            func_.localBytes += s.arraySize * 4;
            break;
          }
          case StmtKind::ExprStmt:
            expr(*s.expr);
            break;
          case StmtKind::Return:
            setTerm(TermKind::Return);
            newBlock();   // Subsequent code is unreachable but parsed.
            break;
          case StmtKind::If: {
            Value c = convert(expr(*s.expr), Scalar::Bool);
            uint32_t then_blk = reserveBlock();
            uint32_t else_blk = s.elseStmt ? reserveBlock() : 0;
            uint32_t end_blk = reserveBlock();
            setTerm(TermKind::CondJump, c.vreg, then_blk,
                    s.elseStmt ? else_blk : end_blk);
            switchTo(then_blk);
            stmt(*s.thenStmt);
            setTerm(TermKind::Jump, kNoVReg, end_blk);
            if (s.elseStmt) {
                switchTo(else_blk);
                stmt(*s.elseStmt);
                setTerm(TermKind::Jump, kNoVReg, end_blk);
            }
            switchTo(end_blk);
            break;
          }
          case StmtKind::While: {
            uint32_t cond_blk = reserveBlock();
            uint32_t body_blk = reserveBlock();
            uint32_t end_blk = reserveBlock();
            setTerm(TermKind::Jump, kNoVReg, cond_blk);
            switchTo(cond_blk);
            Value c = convert(expr(*s.expr), Scalar::Bool);
            setTerm(TermKind::CondJump, c.vreg, body_blk, end_blk);
            switchTo(body_blk);
            stmt(*s.thenStmt);
            setTerm(TermKind::Jump, kNoVReg, cond_blk);
            switchTo(end_blk);
            break;
          }
          case StmtKind::For: {
            scopes_.emplace_back();
            if (s.initStmt)
                stmt(*s.initStmt);
            uint32_t cond_blk = reserveBlock();
            uint32_t body_blk = reserveBlock();
            uint32_t end_blk = reserveBlock();
            setTerm(TermKind::Jump, kNoVReg, cond_blk);
            switchTo(cond_blk);
            if (s.expr) {
                Value c = convert(expr(*s.expr), Scalar::Bool);
                setTerm(TermKind::CondJump, c.vreg, body_blk, end_blk);
            } else {
                setTerm(TermKind::Jump, kNoVReg, body_blk);
            }
            switchTo(body_blk);
            stmt(*s.thenStmt);
            if (s.stepExpr)
                expr(*s.stepExpr);
            setTerm(TermKind::Jump, kNoVReg, cond_blk);
            switchTo(end_blk);
            scopes_.pop_back();
            break;
          }
        }
    }
};

} // namespace

LFunc
lower(const Kernel &kernel)
{
    Lowering lo(kernel);
    return lo.run();
}

} // namespace bifsim::kclc
