#include "sim/exec.hh"

#include <cstdlib>

#include "sim/bytecode.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

class InterpExecutor final : public Executor
{
  public:
    InterpExecutor(const Module &module, InterpOptions options)
        : interp_(module, options)
    {
    }

    RunResult
    run(const std::string &entry, TraceSink *sink) override
    {
        return interp_.run(entry, sink);
    }
    RunResult
    runTimed(const std::string &entry, IssueEngine &engine) override
    {
        return interp_.run(entry, &engine);
    }
    const Memory &memory() const override { return interp_.memory(); }
    ExecBackend backend() const override
    {
        return ExecBackend::Interp;
    }

  private:
    Interpreter interp_;
};

class BytecodeExecutor final : public Executor
{
  public:
    BytecodeExecutor(BcImage image, InterpOptions options)
        : image_(std::move(image)), vm_(image_, options)
    {
    }

    RunResult
    run(const std::string &entry, TraceSink *sink) override
    {
        return vm_.run(entry, sink);
    }
    RunResult
    runTimed(const std::string &entry, IssueEngine &engine) override
    {
        return vm_.runTimed(entry, engine);
    }
    const Memory &memory() const override { return vm_.memory(); }
    ExecBackend backend() const override
    {
        return ExecBackend::Bytecode;
    }

  private:
    BcImage image_;
    BytecodeVM vm_;
};

} // namespace

const char *
execBackendName(ExecBackend backend)
{
    switch (backend) {
      case ExecBackend::Interp: return "interp";
      case ExecBackend::Bytecode: return "bytecode";
    }
    SS_PANIC("bad ExecBackend ", static_cast<int>(backend));
}

std::optional<ExecBackend>
parseExecBackend(std::string_view name)
{
    if (name == "interp")
        return ExecBackend::Interp;
    if (name == "bytecode")
        return ExecBackend::Bytecode;
    return std::nullopt;
}

namespace {
std::optional<ExecBackend> g_backend_override;
} // namespace

void
setDefaultExecBackend(std::optional<ExecBackend> backend)
{
    g_backend_override = backend;
}

ExecBackend
defaultExecBackend()
{
    if (g_backend_override)
        return *g_backend_override;
    static const ExecBackend resolved = [] {
        const char *env = std::getenv("SSIM_EXEC");
        if (env != nullptr && *env != '\0') {
            if (auto parsed = parseExecBackend(env))
                return *parsed;
            SS_WARN("SSIM_EXEC='", env,
                    "' is not a backend (interp|bytecode); using "
                    "bytecode");
        }
        return ExecBackend::Bytecode;
    }();
    return resolved;
}

std::unique_ptr<Executor>
makeExecutor(const Module &module, ExecBackend backend,
             InterpOptions options)
{
    if (backend == ExecBackend::Bytecode) {
        if (auto image = lowerModule(module))
            return std::make_unique<BytecodeExecutor>(
                std::move(*image), options);
        // lowerModule counted the fallback; run the reference
        // backend so the caller never sees the difference.
    }
    return std::make_unique<InterpExecutor>(module, options);
}

std::unique_ptr<Executor>
makeExecutor(const Module &module, InterpOptions options)
{
    return makeExecutor(module, defaultExecBackend(), options);
}

} // namespace ilp
