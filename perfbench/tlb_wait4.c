/* wait4(2) for the benchmark: the exit status of a child together with its
   peak resident set size (ru_maxrss, KiB on Linux — the VmHWM the kernel
   kept for the process).  OCaml's Unix library has no wait4. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

/* Returns (exit_code, maxrss_kib); a signal-terminated child reports
   128 + signal number, as a shell would. */
value tlb_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(result);
  pid_t pid = Int_val(v_pid);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_release_runtime_system();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_acquire_runtime_system();
  if (r < 0) caml_failwith("wait4 failed");
  result = caml_alloc_tuple(2);
  Store_field(result, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(result, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(result);
}
