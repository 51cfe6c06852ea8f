(* Set-up time: from spawning a fresh process to the moment it could
   begin its first timed operation.  On the simulation workloads the
   process is this benchmark in its probe mode (runtime start, GC
   tuning, LP optima, one run's construction); on service_mix it is the
   daemon (runtime start, bind, store open, pool spawn, first status
   reply).  Set-up is cold by nature, so every probe is a new process;
   each sits between reference kernels of its own ({!Calib}) and the
   metric is the median over the probes, in reference seconds. *)

let probes = 21

(* [probe k] performs set-up number [k] and returns its wall time in ns
   and its check. *)
let measure ~cal rep probe =
  let before = ref (Calib.run cal 1) in
  let raw = ref [] and refs = ref [] in
  for k = 1 to probes do
    let ns, check = probe k in
    Report.op rep check;
    let after = Calib.run cal 1 in
    let wall = float_of_int ns /. 1e9 in
    raw := wall :: !raw;
    refs := Calib.to_ref ~kernel_ns:((!before + after) / 2) wall :: !refs;
    before := after
  done;
  Printf.printf "set-up: %d probes, median %.3f ms wall, %.3f ms reference\n"
    probes
    (Report.median !raw *. 1e3)
    (Report.median !refs *. 1e3);
  Report.median !refs

(* Runs this executable with [args]; it reports "ready" on its standard
   output once set up, and exits 0.  Returns the time to "ready". *)
let spawn_ready args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Spans.now_ns () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let ns = Spans.now_ns () - t0 in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  ( ns,
    if line = "ready" && status = Unix.WEXITED 0 then None
    else Some "set-up probe did not report ready and exit 0" )
