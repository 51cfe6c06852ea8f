(* Spans recorded from the benchmark's own files around its calls into
   each layer, kept in memory and written out once at the end.  A
   layer's self time is its spans' durations minus the parts their
   child spans cover.  Inside one simulation run the packet layers are
   not separate calls, so [Simtrace] charges them through {!charge}:
   time measured between two monitor hooks, which counts as a child of
   the enclosing span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Engine
  | Netsim
  | Tcp
  | Mptcp
  | Measure
  | Fluid
  | Lp
  | Core
  | Events
  | Serve
  | Daemon
  | Pool
  | Bench  (** the benchmark's own glue: the unattributed part *)

let all =
  [ Engine; Netsim; Tcp; Mptcp; Measure; Fluid; Lp; Core; Events; Serve;
    Daemon; Pool; Bench ]

let index = function
  | Engine -> 0
  | Netsim -> 1
  | Tcp -> 2
  | Mptcp -> 3
  | Measure -> 4
  | Fluid -> 5
  | Lp -> 6
  | Core -> 7
  | Events -> 8
  | Serve -> 9
  | Daemon -> 10
  | Pool -> 11
  | Bench -> 12

let name = function
  | Engine -> "engine"
  | Netsim -> "netsim"
  | Tcp -> "tcp"
  | Mptcp -> "mptcp"
  | Measure -> "measure"
  | Fluid -> "fluid"
  | Lp -> "lp"
  | Core -> "core"
  | Events -> "events"
  | Serve -> "serve"
  | Daemon -> "daemon"
  | Pool -> "pool"
  | Bench -> "bench"

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  layer : layer;
  label : string;
  start_ns : int;
  stop_ns : int;
}

type frame = { fid : int; flayer : layer; fstart : int; mutable covered : int }

type t = {
  mutable on : bool;
      (** [false] runs every wrapped call bare: the same code path with
          no clock reads, for measuring the tracing overhead *)
  self_ns : int array;  (** per layer, indexed by {!index} *)
  mutable stack : frame list;
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  by_label : (string, int * int) Hashtbl.t;  (** label -> calls, total ns *)
}

let create ?(on = true) () =
  { on; self_ns = Array.make (List.length all) 0; stack = []; spans = [];
    next_id = 0; by_label = Hashtbl.create 32 }

let self_ns t layer = t.self_ns.(index layer)

let span t layer label f =
  if not t.on then f ()
  else begin
    let fid = t.next_id in
    t.next_id <- fid + 1;
    let fr = { fid; flayer = layer; fstart = now_ns (); covered = 0 } in
    let parent = match t.stack with [] -> -1 | p :: _ -> p.fid in
    t.stack <- fr :: t.stack;
    let finish () =
      let stop = now_ns () in
      let dur = stop - fr.fstart in
      t.stack <- List.tl t.stack;
      (match t.stack with [] -> () | p :: _ -> p.covered <- p.covered + dur);
      let i = index layer in
      t.self_ns.(i) <- t.self_ns.(i) + dur - fr.covered;
      t.spans <-
        { id = fid; parent; layer; label; start_ns = fr.fstart; stop_ns = stop }
        :: t.spans;
      let calls, total =
        Option.value ~default:(0, 0) (Hashtbl.find_opt t.by_label label)
      in
      Hashtbl.replace t.by_label label (calls + 1, total + dur)
    in
    Fun.protect ~finally:finish f
  end

(* Charge [ns] measured inside the innermost open span to [layer], as if
   it were a child span of that length. *)
let charge t layer ns =
  let i = index layer in
  t.self_ns.(i) <- t.self_ns.(i) + ns;
  match t.stack with [] -> () | p :: _ -> p.covered <- p.covered + ns

let mean_us t label =
  match Hashtbl.find_opt t.by_label label with
  | Some (n, total) when n > 0 -> float_of_int total /. float_of_int n /. 1e3
  | _ -> 0.0

let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns

let write t ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d}\n"
        s.id s.parent (name s.layer) s.label s.start_ns (s.stop_ns - s.start_ns))
    (List.rev t.spans);
  close_out oc
