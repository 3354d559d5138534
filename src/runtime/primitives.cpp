#include "runtime/primitives.hpp"

#include "common/logging.hpp"

namespace bcl {

PrimState
initPrimState(const ElabPrim &prim)
{
    PrimState st;
    if (prim.kind == "Reg") {
        st.val = prim.init;
    } else if (prim.kind == "Bram") {
        if (prim.init.valid()) {
            st.val = prim.init;
        } else {
            if (!prim.type)
                panic("Bram " + prim.path + " has no element type");
            std::vector<Value> zero(
                static_cast<size_t>(prim.size), prim.type->zeroValue());
            st.val = Value::makeVec(std::move(zero));
        }
    } else if (prim.kind == "Bitmap") {
        std::vector<Value> zero(static_cast<size_t>(prim.size),
                                Value::makeBits(32, 0));
        st.val = Value::makeVec(std::move(zero));
    }
    // Fifo / Sync / SyncTx / SyncRx / AudioDev start with empty queues.
    return st;
}

namespace {

PrimRead
okRead(Value v)
{
    PrimRead r;
    r.ok = true;
    r.val = std::move(v);
    return r;
}

PrimRead
failRead()
{
    return PrimRead{};
}

} // namespace

PrimMethodId
resolvePrimMethod(const ElabPrim &prim, const std::string &meth,
                  bool is_action)
{
    const std::string &k = prim.kind;
    if (!is_action) {
        if (k == "Reg") {
            if (meth == "_read")
                return PrimMethodId::RegRead;
        } else if (k == "Fifo" || k == "Sync" || k == "SyncRx" ||
                   k == "SyncTx") {
            if (meth == "first")
                return PrimMethodId::QueueFirst;
            if (meth == "notEmpty")
                return PrimMethodId::QueueNotEmpty;
            if (meth == "notFull")
                return PrimMethodId::QueueNotFull;
        } else if (k == "Bram") {
            if (meth == "read")
                return PrimMethodId::BramRead;
        } else if (k == "Bitmap") {
            if (meth == "get")
                return PrimMethodId::BitmapGet;
        }
        panic("readPrim: no value method " + k + "." + meth + " (" +
              prim.path + ")");
    }
    if (k == "Reg") {
        if (meth == "_write")
            return PrimMethodId::RegWrite;
    } else if (k == "Fifo" || k == "Sync" || k == "SyncTx" ||
               k == "SyncRx") {
        if (meth == "enq")
            return PrimMethodId::QueueEnq;
        if (meth == "deq")
            return PrimMethodId::QueueDeq;
        if (meth == "clear")
            return PrimMethodId::QueueClear;
    } else if (k == "Bram") {
        if (meth == "write")
            return PrimMethodId::BramWrite;
    } else if (k == "AudioDev") {
        if (meth == "output")
            return PrimMethodId::AudioOutput;
    } else if (k == "Bitmap") {
        if (meth == "store")
            return PrimMethodId::BitmapStore;
    }
    panic("writePrim: no action method " + k + "." + meth + " (" +
          prim.path + ")");
}

PrimRead
readPrim(const ElabPrim &prim, const PrimState &st, PrimMethodId meth,
         const std::vector<Value> &args)
{
    switch (meth) {
      case PrimMethodId::RegRead:
        return okRead(st.val);
      case PrimMethodId::QueueFirst:
        if (st.queue.empty())
            return failRead();
        return okRead(st.queue.front());
      case PrimMethodId::QueueNotEmpty:
        return okRead(Value::makeBool(!st.queue.empty()));
      case PrimMethodId::QueueNotFull:
        return okRead(Value::makeBool(
            static_cast<int>(st.queue.size()) < prim.capacity));
      case PrimMethodId::BramRead: {
        auto addr = args[0].asUInt();
        if (addr >= st.val.size()) {
            panic("Bram " + prim.path + ": read address " +
                  std::to_string(addr) + " out of range " +
                  std::to_string(st.val.size()));
        }
        return okRead(st.val.at(addr));
      }
      case PrimMethodId::BitmapGet: {
        auto addr = args[0].asUInt();
        if (addr >= st.val.size()) {
            panic("Bitmap " + prim.path + ": index " +
                  std::to_string(addr) + " out of range");
        }
        return okRead(st.val.at(addr));
      }
      default:
        panic("readPrim: action method id used as value method (" +
              prim.path + ")");
    }
}

bool
writePrim(const ElabPrim &prim, PrimState &st, PrimMethodId meth,
          const std::vector<Value> &args)
{
    switch (meth) {
      case PrimMethodId::RegWrite:
        st.val = args[0];
        return true;
      case PrimMethodId::QueueEnq:
        if (static_cast<int>(st.queue.size()) >= prim.capacity)
            return false;
        st.queue.push_back(args[0]);
        return true;
      case PrimMethodId::QueueDeq:
        if (st.queue.empty())
            return false;
        st.queue.pop_front();
        return true;
      case PrimMethodId::QueueClear:
        st.queue.clear();
        return true;
      case PrimMethodId::BramWrite: {
        auto addr = args[0].asUInt();
        if (addr >= st.val.size()) {
            panic("Bram " + prim.path + ": write address " +
                  std::to_string(addr) + " out of range " +
                  std::to_string(st.val.size()));
        }
        st.val = std::move(st.val).withElem(addr, args[1]);
        return true;
      }
      case PrimMethodId::AudioOutput:
        st.queue.push_back(args[0]);
        return true;
      case PrimMethodId::BitmapStore: {
        auto addr = args[0].asUInt();
        if (addr >= st.val.size()) {
            panic("Bitmap " + prim.path + ": store index " +
                  std::to_string(addr) + " out of range");
        }
        st.val = std::move(st.val).withElem(addr, args[1]);
        return true;
      }
      default:
        panic("writePrim: value method id used as action method (" +
              prim.path + ")");
    }
}

int
primWordSize(const ElabPrim &prim)
{
    if (!prim.type)
        return 1;
    int bits = prim.type->flatWidth();
    return bits <= 0 ? 1 : (bits + 31) / 32;
}

} // namespace bcl
