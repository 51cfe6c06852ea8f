(* Same-run speed reference.  The hosts this runs on share memory
   bandwidth and caches with other tenants, and a fixed simulation's
   wall time drifts by 20-50% within minutes; process CPU time drifts
   with it, so the loss is speed, not scheduling.  A fixed kernel of
   allocation and pointer chasing, timed between operations, drifts the
   same way, so wall times are reported in reference seconds:

     ref_s = wall_s * nominal / (mean kernel time in this run)

   The kernel uses only the standard library, so no change to the
   simulator moves it.  [nominal] is its mean time on a 2-core x86-64
   VM at 2.0 GHz; it only scales the reported figures. *)

let nominal_ns = 20_000_000

module M = Map.Make (Int)

let sink = ref 0

let lcg st =
  st := ((!st * 1103515245) + 12345) land 0x3fffffff;
  !st

(* Balanced trees, a sort and a hash table: short-lived allocation. *)
let structures () =
  let st = ref 12345 in
  let m = ref M.empty in
  for i = 0 to 4_000 do
    m := M.add (lcg st land 0xffff) i !m
  done;
  let l = List.sort compare (List.init 4_000 (fun i -> float_of_int ((i * 7919) mod 10007))) in
  let h = Hashtbl.create 1024 in
  for i = 0 to 5_000 do
    Hashtbl.replace h (lcg st land 0xffff) (float_of_int i)
  done;
  let s = ref 0.0 in
  for i = 0 to 5_000 do
    match Hashtbl.find_opt h i with Some f -> s := !s +. f | None -> ()
  done;
  M.cardinal !m + int_of_float (List.hd l) + int_of_float !s

(* Random reads over 16 MB, then a stream of short-lived cons cells. *)
let table = lazy (Array.init (1 lsl 21) (fun i -> i))

let memory () =
  let big = Lazy.force table in
  let st = ref 777 and s = ref 0 in
  for _ = 1 to 120_000 do
    s := !s + big.(lcg st land ((1 lsl 21) - 1))
  done;
  let acc = ref [] in
  for i = 1 to 80_000 do
    acc := (i, float_of_int i) :: (if i land 63 = 0 then [] else !acc)
  done;
  !s + List.length !acc

(* Mutable records touched at random, as an event loop touches its
   queues and sockets, with a trickle of fresh records. *)
type cell = { mutable a : int; mutable c : float; mutable d : cell option }

let records () =
  let ring = Array.init 65536 (fun i -> { a = i; c = 0.; d = None }) in
  let st = ref 31 and s = ref 0. in
  for i = 1 to 100_000 do
    let p = ring.(lcg st land 65535) in
    p.a <- p.a + i;
    p.c <- p.c +. 1.5;
    if i land 7 = 0 then p.d <- Some { a = i; c = 0.; d = None };
    s := !s +. p.c
  done;
  int_of_float !s

let kernel () = sink := !sink + structures () + memory () + records ()

(* The kernel runs in a child process forked at start-up, so its heap
   never adds to the benchmark's peak memory or moves its GC counts;
   the parent blocks while it runs, so the two never compete. *)
type t = {
  pid : int;
  req : out_channel;
  resp : in_channel;
  mutable runs : int;
  mutable ns : int;
}

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    (* Fixed GC settings of its own, so no change to the simulator's
       tuning moves the reference. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 lsl 20; space_overhead = 120 };
    let ic = Unix.in_channel_of_descr req_r
    and oc = Unix.out_channel_of_descr resp_w in
    (* One untimed kernel first: it builds the 16 MB table, which would
       otherwise slow the first timed batch. *)
    kernel ();
    (try
       while true do
         let n = int_of_string (input_line ic) in
         if n <= 0 then raise Exit;
         let t0 = Spans.now_ns () in
         for _ = 1 to n do kernel () done;
         Printf.fprintf oc "%d\n%!" (Spans.now_ns () - t0)
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    { pid; req = Unix.out_channel_of_descr req_w;
      resp = Unix.in_channel_of_descr resp_r; runs = 0; ns = 0 }

(* Runs [n] kernels; returns their mean time in ns. *)
let run t n =
  Printf.fprintf t.req "%d\n%!" n;
  let ns = int_of_string (input_line t.resp) in
  t.ns <- t.ns + ns;
  t.runs <- t.runs + n;
  ns / n

let stop t =
  (try Printf.fprintf t.req "0\n%!" with Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid : int * Unix.process_status)

let kernel_ms t = float_of_int t.ns /. float_of_int (max 1 t.runs) /. 1e6

(* Reference time for [wall] measured next to kernels of mean [kernel_ns]. *)
let to_ref ~kernel_ns wall = wall *. float_of_int nominal_ns /. float_of_int kernel_ns
