/**
 * @file
 * Operation traces: the unit of work executed by core timing models.
 *
 * Request processing is synthesized as a sequence of operations at
 * cache-line granularity: bulk compute (instruction execution with no
 * interesting memory behaviour), passes of instruction fetches
 * streaming through code regions, and data loads/stores. The server
 * module's trace generator produces these from calibrated per-phase
 * costs plus the functional key-value store's actual probe walks.
 */

#ifndef MERCURY_CPU_OP_TRACE_HH
#define MERCURY_CPU_OP_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace mercury::cpu
{

/** Access pattern hint used for memory-level-parallelism modelling. */
enum class Stream
{
    /** Independent random accesses; OoO cores overlap a few. */
    Random,
    /** Streaming/strided; prefetchable and easy to overlap. */
    Sequential,
    /** Dependent pointer chase; serializes on every machine. */
    Dependent,
};

/** One operation in a trace. */
struct Op
{
    enum class Kind : std::uint8_t { Compute, CodePass, Load, Store };

    Kind kind;
    Stream stream = Stream::Sequential;
    /** Line size of a CodePass. */
    std::uint32_t lineBytes = 0;
    /** Instruction count of a Compute op, or of a whole CodePass. */
    std::uint64_t instructions = 0;
    /** Line-aligned address for memory ops; first line of a CodePass. */
    Addr addr = 0;
    /** Lines fetched by a CodePass (at least one). */
    std::uint64_t lines = 0;

    static Op
    compute(std::uint64_t instructions)
    {
        Op op;
        op.kind = Kind::Compute;
        op.instructions = instructions;
        return op;
    }

    static Op
    codePass(Addr base, std::uint64_t lines, std::uint64_t instructions,
             unsigned line_bytes)
    {
        Op op;
        op.kind = Kind::CodePass;
        op.addr = base;
        op.lines = lines;
        op.instructions = instructions;
        op.lineBytes = line_bytes;
        return op;
    }

    static Op
    load(Addr addr, Stream stream = Stream::Random)
    {
        Op op;
        op.kind = Kind::Load;
        op.addr = addr;
        op.stream = stream;
        return op;
    }

    static Op
    store(Addr addr, Stream stream = Stream::Random)
    {
        Op op;
        op.kind = Kind::Store;
        op.addr = addr;
        op.stream = stream;
        return op;
    }
};

using OpTrace = std::vector<Op>;

/** Helpers for building common access patterns. */
class TraceBuilder
{
  public:
    explicit TraceBuilder(OpTrace &trace) : trace_(trace) {}

    TraceBuilder &
    compute(std::uint64_t instructions)
    {
        if (instructions > 0)
            trace_.push_back(Op::compute(instructions));
        return *this;
    }

    /**
     * Stream instruction fetches across a code region once,
     * interleaving the given instruction count as compute.
     *
     * Emits a single CodePass op that the core walks line by line
     * without materialising it: line i fetches base + i * line_bytes
     * and then executes instructions / lines instructions, plus one
     * for each of the first instructions % lines lines. A line whose
     * share is zero executes no compute. A zero-byte region is pure
     * compute.
     */
    TraceBuilder &codePass(Addr base, std::uint64_t region_bytes,
                           std::uint64_t instructions,
                           unsigned line_bytes = 64);

    /** Sequentially read a buffer at line granularity. */
    TraceBuilder &streamRead(Addr base, std::uint64_t bytes,
                             unsigned line_bytes = 64);

    /** A dependent load (pointer chase step); serializes. */
    TraceBuilder &
    chaseLoad(Addr addr)
    {
        trace_.push_back(Op::load(addr, Stream::Dependent));
        return *this;
    }

    TraceBuilder &
    randomStore(Addr addr)
    {
        trace_.push_back(Op::store(addr, Stream::Random));
        return *this;
    }

  private:
    OpTrace &trace_;
};

} // namespace mercury::cpu

#endif // MERCURY_CPU_OP_TRACE_HH
