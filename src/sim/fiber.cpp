#include "sim/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

extern "C" void pisces_fiber_entry(void* ctx);

#if defined(__unix__) || defined(__APPLE__)
#define PISCES_SIM_FIBER_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define PISCES_SIM_FIBER_MMAP 0
#endif

#define PISCES_SIM_FIBER_ANNOTATE (PISCES_SIM_FIBER_ASM && PISCES_SIM_FIBER_ASAN)
#if PISCES_SIM_FIBER_ANNOTATE
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ---------------------------------------------------------------------------
// Raw context switch. Saves the callee-saved register set on the current
// stack, publishes the stack pointer through `from`, and adopts `to`'s.
// A fresh fiber's stack is pre-built (see make()) to look exactly like a
// suspended frame whose return address is the entry thunk.
// ---------------------------------------------------------------------------

#if PISCES_SIM_FIBER_ASM

extern "C" {
void pisces_fiber_switch_asm(void** from_sp, void* const* to_sp);
void pisces_fiber_thunk_asm();
}

#if defined(__x86_64__)

// SysV x86-64: rbx, rbp, r12-r15 are callee-saved, plus the x87 control
// word and MXCSR. Frame layout (ascending from the saved sp, 64 bytes):
//   +0  fcw/mxcsr   +8 r15   +16 r14   +24 r13   +32 r12
//   +40 rbx         +48 rbp  +56 return address
// The saved sp is 16-aligned, so the thunk starts with rsp 16-aligned and
// its `call` gives the C++ entry a correctly aligned frame.
asm(R"(
    .text
    .align 16
    .globl pisces_fiber_switch_asm
    .type pisces_fiber_switch_asm, @function
pisces_fiber_switch_asm:
    .cfi_startproc
    endbr64
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq  %rsp, (%rdi)
    movq  (%rsi), %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    retq
    .cfi_endproc
    .size pisces_fiber_switch_asm, .-pisces_fiber_switch_asm

    .align 16
    .globl pisces_fiber_thunk_asm
    .type pisces_fiber_thunk_asm, @function
pisces_fiber_thunk_asm:
    movq  %r15, %rdi
    callq pisces_fiber_entry@PLT
    ud2
    .size pisces_fiber_thunk_asm, .-pisces_fiber_thunk_asm
)");

#elif defined(__aarch64__)

// AAPCS64: x19-x28, fp (x29), lr (x30) and d8-d15 are callee-saved.
// Frame layout (ascending from the saved sp, 160 bytes):
//   +0 x19/x20  +16 x21/x22  +32 x23/x24  +48 x25/x26  +64 x27/x28
//   +80 x29/x30  +96 d8/d9  +112 d10/d11  +128 d12/d13  +144 d14/d15
asm(R"(
    .text
    .align 4
    .globl pisces_fiber_switch_asm
    .type pisces_fiber_switch_asm, %function
pisces_fiber_switch_asm:
    hint  #34
    sub   sp, sp, #160
    stp   x19, x20, [sp, #0]
    stp   x21, x22, [sp, #16]
    stp   x23, x24, [sp, #32]
    stp   x25, x26, [sp, #48]
    stp   x27, x28, [sp, #64]
    stp   x29, x30, [sp, #80]
    stp   d8,  d9,  [sp, #96]
    stp   d10, d11, [sp, #112]
    stp   d12, d13, [sp, #128]
    stp   d14, d15, [sp, #144]
    mov   x2, sp
    str   x2, [x0]
    ldr   x2, [x1]
    mov   sp, x2
    ldp   x19, x20, [sp, #0]
    ldp   x21, x22, [sp, #16]
    ldp   x23, x24, [sp, #32]
    ldp   x25, x26, [sp, #48]
    ldp   x27, x28, [sp, #64]
    ldp   x29, x30, [sp, #80]
    ldp   d8,  d9,  [sp, #96]
    ldp   d10, d11, [sp, #112]
    ldp   d12, d13, [sp, #128]
    ldp   d14, d15, [sp, #144]
    add   sp, sp, #160
    ret
    .size pisces_fiber_switch_asm, .-pisces_fiber_switch_asm

    .align 4
    .globl pisces_fiber_thunk_asm
    .type pisces_fiber_thunk_asm, %function
pisces_fiber_thunk_asm:
    mov   x0, x19
    bl    pisces_fiber_entry
    brk   #0
    .size pisces_fiber_thunk_asm, .-pisces_fiber_thunk_asm
)");

#else
#error "PISCES_SIM_FIBER_ASM set on an architecture without a switch implementation"
#endif

#endif  // PISCES_SIM_FIBER_ASM

namespace pisces::sim::fiber {
namespace {

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

#if !PISCES_SIM_FIBER_ASM
// makecontext only passes ints portably; split the Context pointer.
void ucontext_shim(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  pisces_fiber_entry(reinterpret_cast<void*>(bits));
}
#endif

}  // namespace

Stack::Stack(std::size_t usable_bytes) {
#if PISCES_SIM_FIBER_MMAP
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  guard_ = page;
  size_ = round_up(usable_bytes, page) + guard_;
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_STACK
  flags |= MAP_STACK;
#endif
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ::mprotect(p, guard_, PROT_NONE);
  base_ = p;
#else
  guard_ = 0;
  size_ = round_up(usable_bytes, 16);
  base_ = ::operator new(size_, std::align_val_t{16});
#endif
}

Stack::~Stack() {
  if (base_ == nullptr) return;
#if PISCES_SIM_FIBER_MMAP
  ::munmap(base_, size_);
#else
  ::operator delete(base_, std::align_val_t{16});
#endif
}

void* Stack::limit() const {
  return static_cast<unsigned char*>(base_) + guard_;
}

void* Stack::top() const {
  // size_ - guard_ is page- (or 16-) aligned, so this stays 16-aligned.
  return static_cast<unsigned char*>(base_) + size_;
}

std::size_t Stack::usable_bytes() const { return size_ - guard_; }

void make(Context& ctx, const Stack& stack, Entry entry, void* arg) {
  ctx.entry = entry;
  ctx.arg = arg;
#if PISCES_SIM_FIBER_ASAN
  ctx.stack_bottom = stack.limit();
  ctx.stack_size = stack.usable_bytes();
#endif
#if PISCES_SIM_FIBER_ASM
  auto* top = static_cast<unsigned char*>(stack.top());
#if defined(__x86_64__)
  constexpr std::size_t kFrame = 64;
  unsigned char* sp = top - kFrame;
  std::memset(sp, 0, kFrame);
  // Seed the control words from the current thread so the fiber starts with
  // the same rounding/exception masks as everything else.
  std::uint16_t fcw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fcw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  std::memcpy(sp + 0, &fcw, sizeof fcw);
  std::memcpy(sp + 4, &mxcsr, sizeof mxcsr);
  void* ctx_ptr = &ctx;
  void* thunk = reinterpret_cast<void*>(&pisces_fiber_thunk_asm);
  std::memcpy(sp + 8, &ctx_ptr, sizeof ctx_ptr);   // restored into r15
  std::memcpy(sp + 56, &thunk, sizeof thunk);      // return address
#elif defined(__aarch64__)
  constexpr std::size_t kFrame = 160;
  unsigned char* sp = top - kFrame;
  std::memset(sp, 0, kFrame);
  void* ctx_ptr = &ctx;
  void* thunk = reinterpret_cast<void*>(&pisces_fiber_thunk_asm);
  std::memcpy(sp + 0, &ctx_ptr, sizeof ctx_ptr);   // restored into x19
  std::memcpy(sp + 88, &thunk, sizeof thunk);      // restored into x30
#endif
  ctx.sp = sp;
#else
  ::getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack.limit();
  ctx.uc.uc_stack.ss_size = stack.usable_bytes();
  ctx.uc.uc_link = nullptr;
  const auto bits = reinterpret_cast<std::uintptr_t>(&ctx);
  ::makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_shim), 2,
                static_cast<unsigned>(bits >> 32),
                static_cast<unsigned>(bits & 0xffffffffu));
#endif
}

void capture_host(Context& ctx) {
#if PISCES_SIM_FIBER_ANNOTATE && defined(__GLIBC__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      ctx.stack_bottom = addr;
      ctx.stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
#else
  (void)ctx;
#endif
}

void switch_to(Context& from, Context& to, bool from_dying) {
#if PISCES_SIM_FIBER_ANNOTATE
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from_dying;
#endif
#if PISCES_SIM_FIBER_ASM
  pisces_fiber_switch_asm(&from.sp, &to.sp);
#else
  // The ucontext path leans on ASan's swapcontext interceptor instead of
  // manual fiber annotations (mixing both double-counts the switch).
  ::swapcontext(&from.uc, &to.uc);
#endif
#if PISCES_SIM_FIBER_ANNOTATE
  // Control came back into `from`; tell ASan which fake stack to resume.
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

}  // namespace pisces::sim::fiber

// First code executed on a brand-new fiber's own stack.
extern "C" void pisces_fiber_entry(void* ctx_v) {
  auto* ctx = static_cast<pisces::sim::fiber::Context*>(ctx_v);
#if PISCES_SIM_FIBER_ANNOTATE
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  ctx->entry(ctx->arg);
  std::abort();  // the entry function must switch away, never return
}
