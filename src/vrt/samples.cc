#include "src/vrt/samples.h"

namespace vrt {

std::string FibSource() {
  return R"(
virtine_main:
  push fp
  mov fp, sp
  ldw r1, [fp+WORD+WORD]      ; n
  push r1
  call fib
  add sp, WORD                ; caller cleans the argument
  pop fp
  ret

; fib(n): classic recursive implementation.
fib:
  push fp
  mov fp, sp
  ldw r1, [fp+WORD+WORD]
  cmp r1, 2
  jge fib_rec
  mov r0, r1                  ; fib(0)=0, fib(1)=1
  pop fp
  ret
fib_rec:
  sub r1, 1
  push r1                     ; doubles as saved n-1 and the argument
  call fib                    ; r0 = fib(n-1)
  pop r1                      ; r1 = n-1 (also cleans the argument)
  sub r1, 1                   ; n-2
  push r0                     ; save fib(n-1)
  push r1
  call fib                    ; r0 = fib(n-2)
  add sp, WORD
  pop r1                      ; fib(n-1)
  add r0, r1
  pop fp
  ret
)";
}

std::string HaltSource() {
  return R"(
start:
  hlt
)";
}

std::string Add2Source() {
  return R"(
virtine_main:
  push fp
  mov fp, sp
  ldw r0, [fp+WORD+WORD]
  ldw r1, [fp+WORD+WORD+WORD]
  add r0, r1
  pop fp
  ret
)";
}

std::string EchoSource() {
  // Buffer at a fixed scratch address (0x600, between the argument page and
  // the real-mode stack; safely below the image).
  return R"(
virtine_main:
echo_loop:
  mov r1, 0x600               ; buf
  mov r2, 256                 ; cap
  mov r0, 0
  out HC_RECV, r0             ; r0 = bytes received
  cmp r0, 0
  je echo_done
  mov r2, r0                  ; len = received
  mov r1, 0x600
  mov r0, 0
  out HC_SEND, r0
  jmp echo_loop
echo_done:
  mov r0, 0
  ret
)";
}

std::string EchoMilestonesSource() {
  // The paper takes the Figure 4 measurements "inside the virtual context".
  return R"vc(
int main() {
  char buf[1024];
  int mb[3];
  int n;
  mb[0] = __rdtsc();          // milestone: reached C code (server main)
  n = recv(buf, 1023);
  mb[1] = __rdtsc();          // milestone: request received (recv returned)
  if (n > 0) {
    send(buf, n);
  }
  mb[2] = __rdtsc();          // milestone: response sent (send returned)
  return_data(mb, sizeof(int) * 3);
  return n;
}
)vc";
}

}  // namespace vrt
