(* The service workload: a resident daemon in a process of its own, fed by
   this process over two connections in a closed loop (each connection
   waits for its reply before sending the next submission). *)

module P = Daemon.Protocol
module S = Core.Scenario

(* ---- Request sequences: a function of the workload seed alone ---- *)

(* Spec [id]: a 0.5 s paper-network preset.  Ids >= 0 are one
   connection's new specs, ids < 0 the specs both connections submit
   together. *)
let spec_text ~seed id =
  let rng = Random.State.make [| seed; 0x5e7; id |] in
  let cc = List.nth [ "cubic"; "lia"; "olia" ] (Random.State.int rng 3) in
  let default = 1 + Random.State.int rng 3 in
  let cell_seed = Random.State.bits rng in
  Printf.sprintf
    "(preset (label %s%d) (cc %s) (default %d) (seed %d) (duration-s 0.5))"
    (if id >= 0 then "s" else "j") (abs id) cc default cell_seed

let sim_s_per_spec = 0.5

type kind = New | Joint | Repeat

type req = { kind : kind; id : int; sexps : Events.Sexp.t list }

type gen = {
  conn : int;
  seed : int;
  rng : Random.State.t;
  mutable pos : int;
  mutable news : int;
  mutable history : int array;  (** specs this connection has submitted *)
  mutable known : int;
}

let joint_every = 100

let gen ~seed conn =
  { conn; seed; rng = Random.State.make [| seed; 0xc11e; conn |]; pos = 0;
    news = 0; history = Array.make 64 0; known = 0 }

(* About 1 in 5 submissions is a new spec, 4 in 5 repeat one drawn from
   everything this connection has submitted (so the working set grows),
   and every [joint_every]-th is a spec both connections submit at the
   same moment. *)
let next g =
  g.pos <- g.pos + 1;
  let kind, id =
    if g.pos mod joint_every = 0 then (Joint, -(g.pos / joint_every))
    else if g.known = 0 || Random.State.int g.rng 5 = 0 then begin
      let id = (2 * g.news) + g.conn in
      g.news <- g.news + 1;
      (New, id)
    end
    else (Repeat, g.history.(Random.State.int g.rng g.known))
  in
  if kind <> Repeat then begin
    if g.known = Array.length g.history then
      g.history <- Array.append g.history (Array.make g.known 0);
    g.history.(g.known) <- id;
    g.known <- g.known + 1
  end;
  { kind; id; sexps = Events.Sexp.parse_string (spec_text ~seed:g.seed id) }

let spec_of ~seed id =
  match
    Serve.Batch.of_sexps ~base_dir:"."
      (Events.Sexp.parse_string (spec_text ~seed id))
  with
  | [ e ] -> e.Serve.Batch.spec
  | _ -> invalid_arg "Svc.spec_of: preset did not expand to one entry"

(* ---- Daemon child ---- *)

let domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type child = { pid : int; socket : string; store : string }

(* Daemons not yet drained, so an aborted run can still stop them. *)
let live = ref []

let kill_live () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] c.pid : int * Unix.process_status);
      rm_rf c.store)
    !live;
  live := []

(* The daemon process: this executable in its daemon mode (see
   perfbench.ml), so its start-up is a real process start. *)
let daemon_main ~socket ~store =
  try
    Daemon.run
      { (Daemon.default_conf ~socket_path:socket ~store_dir:store) with
        Daemon.jobs = Some (domains ()); log = false };
    0
  with _ -> 1

let spawn tag k =
  let socket = Printf.sprintf "%s/%s-%d-%d.sock" Report.out_dir tag (Unix.getpid ()) k in
  let store = Printf.sprintf "%s/%s-%d-%d-store" Report.out_dir tag (Unix.getpid ()) k in
  rm_rf store;
  let exe = Sys.executable_name in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe [| exe; "--daemon"; socket; store |] null null Unix.stderr
  in
  Unix.close null;
  let c = { pid; socket; store } in
  live := c :: !live;
  c

let wait_ready c =
  let deadline = Spans.now_ns () + 60_000_000_000 in
  let rec go () =
    match P.call_once ~socket:c.socket P.Status with
    | P.Status_reply _ -> None
    | _ -> Some "daemon answered status with another reply"
    | exception (Unix.Unix_error _ | P.Protocol_error _) ->
      if Spans.now_ns () > deadline then Some "daemon did not come up"
      else (Unix.sleepf 0.0001; go ())
  in
  go ()

(* Drain the daemon and reap it: a clean drain exits 0. *)
let stop c =
  let reply =
    try Ok (P.call_once ~socket:c.socket P.Drain)
    with e -> Error (Printexc.to_string e)
  in
  let _, status = Unix.waitpid [] c.pid in
  live := List.filter (fun l -> l.pid <> c.pid) !live;
  rm_rf c.store;
  Checks.drained reply status

(* ---- Closed-loop clients ---- *)

type barrier = {
  m : Mutex.t;
  cv : Condition.t;
  arrived : (int, int) Hashtbl.t;
  mutable finished : int;
}

(* Both connections submit a joint spec together; a connection that has
   finished its window no longer holds the other back. *)
let meet b id =
  Mutex.lock b.m;
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt b.arrived id) in
  Hashtbl.replace b.arrived id n;
  Condition.broadcast b.cv;
  while Hashtbl.find b.arrived id < 2 && b.finished = 0 do
    Condition.wait b.cv b.m
  done;
  Mutex.unlock b.m

let leave b =
  Mutex.lock b.m;
  b.finished <- b.finished + 1;
  Condition.broadcast b.cv;
  Mutex.unlock b.m

(* What a reply is checked and timed against; the request's sexps are
   not kept, so the client's memory does not grow with them. *)
type sample = {
  kind : kind;
  id : int;
  reply : (P.response, string) result;
  ms : float;
  phase : int;  (** the window phase it ran in, for calibration *)
}

type conn = {
  g : gen;
  fd : Unix.file_descr option;
  mutable broken : bool;
  mutable out : sample list;
  mutable phase : int;
}

let connect socket g =
  match P.connect socket with
  | fd -> { g; fd = Some fd; broken = false; out = []; phase = 0 }
  | exception e ->
    let req = next g in
    { g; fd = None; broken = true; phase = 0;
      out =
        [ { kind = req.kind; id = req.id; reply = Error (Printexc.to_string e);
            ms = infinity; phase = 0 } ] }

(* One closed-loop phase on one connection. *)
let client c ~phase_end ~barrier =
  (match c.fd with
  | Some fd when not c.broken ->
    while (not c.broken) && Spans.now_ns () < phase_end do
      let req = next c.g in
      if req.kind = Joint then meet barrier req.id;
      let t0 = Spans.now_ns () in
      let reply =
        try Ok (P.call fd (P.Submit req.sexps))
        with e -> c.broken <- true; Error (Printexc.to_string e)
      in
      let ms = float_of_int (Spans.now_ns () - t0) /. 1e6 in
      c.out <- { kind = req.kind; id = req.id; reply; ms; phase = c.phase } :: c.out
    done
  | _ -> ());
  leave barrier

(* ---- The traced pass: one connection's sequence through the layers'
   public functions, one call at a time ---- *)

type pass = {
  wall_ns : int;
  outcomes : P.outcome list;
  hits : int;
  records : int;
  busy_frac : float;
}

let layer_pass sp ~seed ~n =
  let store_dir = Printf.sprintf "%s/pass-%d-store" Report.out_dir (Unix.getpid ()) in
  rm_rf store_dir;
  let store = Serve.Store.open_store ~dir:store_dir in
  let pool = Engine.Pool.create ~domains:(domains ()) () in
  let g = gen ~seed 0 in
  let hits = ref 0 and outcomes = ref [] in
  let open Spans in
  let t0 = now_ns () in
  for _ = 1 to n do
    let req = next g in
    span sp Bench "request" (fun () ->
        let text = span sp Daemon "codec" (fun () -> P.render_request (P.Submit req.sexps)) in
        (* The request frame is one sexp parse plus a match on its head. *)
        let sexps =
          match span sp Events "request.parse" (fun () -> P.parse_request text) with
          | P.Submit s -> s
          | _ -> failwith "request codec changed the request kind"
        in
        let e =
          match span sp Serve "batch.of_sexps" (fun () -> Serve.Batch.of_sexps ~base_dir:"." sexps) with
          | [ e ] -> e
          | _ -> failwith "preset did not expand to one entry"
        in
        let hash = span sp Core "canon.hash" (fun () -> Core.Canon.hash e.Serve.Batch.spec) in
        let record, kind =
          match span sp Serve "store.lookup" (fun () -> Serve.Store.lookup store ~hash) with
          | Some r -> incr hits; (r, P.Hit)
          | None ->
            let claim =
              match span sp Serve "store.claim" (fun () -> Serve.Store.try_claim store ~hash) with
              | `Claimed c -> c
              | `Busy -> failwith "claim held in a single-client pass"
            in
            let result, sim_ns, words =
              span sp Pool "pool.simulate" (fun () ->
                  let result, sim_ns, words =
                    Engine.Pool.await
                      (Engine.Pool.submit pool (fun () ->
                           let w0 = Gc.minor_words () in
                           let a = now_ns () in
                           let r = S.run (Checks.as_service_runs e.Serve.Batch.spec) in
                           (r, now_ns () - a, Gc.minor_words () -. w0)))
                  in
                  charge sp Core sim_ns;
                  (result, sim_ns, words))
            in
            let r =
              span sp Serve "store.insert" (fun () ->
                  let r =
                    Serve.Store.of_result ~hash ~label:e.Serve.Batch.label
                      ~wall_s:(float_of_int sim_ns /. 1e9) ~alloc_words:words
                      ~created_unix:(Unix.gettimeofday ()) result
                  in
                  Serve.Store.insert store r;
                  r)
            in
            span sp Serve "store.claim" (fun () -> Serve.Store.release_claim claim);
            (r, P.Fresh)
        in
        span sp Serve "trend.append" (fun () ->
            Serve.Trend.append ~dir:(Serve.Store.dir store)
              (Serve.Trend.entry_of_record ~at_unix:(Unix.gettimeofday ())
                 ~cached:(kind = P.Hit) record));
        let o =
          { P.kind; hash; label = record.Serve.Store.label;
            tail_mbps = record.Serve.Store.tail_mbps;
            opt_mbps = record.Serve.Store.opt_mbps;
            sim_events = record.Serve.Store.sim_events }
        in
        let reply =
          P.Batch
            { outcomes = [ o ]; entries = 1;
              hits = (if kind = P.Hit then 1 else 0);
              fresh = (if kind = P.Fresh then 1 else 0); shared = 0;
              fresh_sim_events = (if kind = P.Fresh then o.P.sim_events else 0) }
        in
        let back =
          span sp Daemon "codec" (fun () -> P.parse_response (P.render_response reply))
        in
        match Checks.single_outcome back with
        | Ok o -> outcomes := o :: !outcomes
        | Error why -> failwith ("response codec: " ^ why))
  done;
  let wall_ns = now_ns () - t0 in
  let busy =
    Array.fold_left (fun a w -> a +. w.Engine.Pool.busy_s) 0.0
      (Engine.Pool.worker_stats pool)
  in
  let busy_frac =
    busy /. (float_of_int (Engine.Pool.size pool) *. float_of_int wall_ns /. 1e9)
  in
  Engine.Pool.shutdown pool;
  let records = Serve.Store.count store in
  rm_rf store_dir;
  { wall_ns; outcomes = List.rev !outcomes; hits = !hits; records; busy_frac }

(* The same sequence through [Daemon.handle] on an in-process daemon:
   the daemon layer's own cost per hit and per miss. *)
let handle_pass sp ~seed ~n =
  let tag = Printf.sprintf "%s/handle-%d" Report.out_dir (Unix.getpid ()) in
  rm_rf (tag ^ "-store");
  let d =
    Daemon.start
      { (Daemon.default_conf ~socket_path:(tag ^ ".sock") ~store_dir:(tag ^ "-store"))
        with Daemon.jobs = Some (domains ()); log = false }
  in
  let server = Thread.create Daemon.serve d in
  let g = gen ~seed 0 in
  let t0 = Spans.now_ns () in
  let replies =
    List.init n (fun _ ->
        let req = next g in
        let label = if req.kind = Repeat then "handle.hit" else "handle.miss" in
        Spans.span sp Spans.Bench "request" (fun () ->
            Spans.span sp Spans.Daemon label (fun () -> Daemon.handle d (P.Submit req.sexps))))
  in
  let wall_ns = Spans.now_ns () - t0 in
  ignore (Daemon.handle d P.Drain : P.response);
  Thread.join server;
  rm_rf (tag ^ "-store");
  (wall_ns, replies)

(* ---- The workload ---- *)

let run ~cal ~seed ~seconds ~trace rep emit =
  (* Set-up: a fresh daemon process up to its first status reply, then
     drained (the drain is not timed). *)
  let setup_s =
    Setup.measure ~cal rep (fun k ->
        let t0 = Spans.now_ns () in
        let c = spawn "probe" k in
        let ready = wait_ready c in
        let ns = Spans.now_ns () - t0 in
        (ns, match ready with None -> stop c | Some _ -> ready))
  in
  let c = spawn "daemon" 0 in
  Report.op rep (wait_ready c);
  let barrier =
    { m = Mutex.create (); cv = Condition.create ();
      arrived = Hashtbl.create 64; finished = 0 }
  in
  (* The window runs in one-second phases; between phases both
     connections are parked and the calibration kernel runs alone. *)
  let conns = [| connect c.socket (gen ~seed 0); connect c.socket (gen ~seed 1) |] in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let kernels = ref [ Calib.run cal 4 ] and phase_ns = ref [] in
  while Spans.now_ns () < deadline do
    barrier.finished <- 0;
    Array.iter (fun cn -> cn.phase <- List.length !phase_ns) conns;
    let p0 = Spans.now_ns () in
    let phase_end = min deadline (p0 + 1_000_000_000) in
    let threads =
      Array.map (fun cn -> Thread.create (fun () -> client cn ~phase_end ~barrier) ()) conns
    in
    Array.iter Thread.join threads;
    phase_ns := (Spans.now_ns () - p0) :: !phase_ns;
    kernels := Calib.run cal 4 :: !kernels
  done;
  Array.iter (fun cn -> Option.iter Unix.close cn.fd) conns;
  (* Phase j is calibrated by the kernels just before and after it. *)
  let kernels = Array.of_list (List.rev !kernels) in
  let phase_ns = Array.of_list (List.rev !phase_ns) in
  let to_ref j x = Calib.to_ref ~kernel_ns:((kernels.(j) + kernels.(j + 1)) / 2) x in
  let window_s = float_of_int (Array.fold_left ( + ) 0 phase_ns) /. 1e9 in
  let samples = List.rev conns.(0).out @ List.rev conns.(1).out in
  (* Checks on every reply. *)
  let table = Hashtbl.create 1024 in
  let hashes = Hashtbl.create 1024 in
  let hash_of id =
    match Hashtbl.find_opt hashes id with
    | Some h -> h
    | None ->
      let h = Core.Canon.hash (spec_of ~seed id) in
      Hashtbl.add hashes id h;
      h
  in
  let phases = Array.length phase_ns in
  let phase_fresh = Array.make phases 0 and phase_ops = Array.make phases 0 in
  List.iter (fun (s : sample) -> phase_ops.(s.phase) <- phase_ops.(s.phase) + 1) samples;
  let per_phase counts =
    Report.median
      (List.init phases (fun j ->
           float_of_int counts.(j) /. to_ref j (float_of_int phase_ns.(j) /. 1e9)))
  in
  let hit_ms = ref [] and miss_ms = ref [] and all_ms = ref [] in
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let check, ms =
        match s.reply with
        | Error why -> (Some ("connection: " ^ why), infinity)
        | Ok resp -> (
          match Checks.single_outcome resp with
          | Error why -> (Some why, infinity)
          | Ok o ->
            if o.P.kind = P.Fresh then
              phase_fresh.(s.phase) <- phase_fresh.(s.phase) + 1;
            Hashtbl.replace by_id s.id o;
            match Checks.reply_hash ~expected:(hash_of s.id) o with
            | Some _ as wrong -> (wrong, s.ms)
            | None -> (Checks.consistent table o, s.ms))
      in
      Report.op rep check;
      let ms = to_ref s.phase ms in
      all_ms := ms :: !all_ms;
      if s.kind = Repeat then hit_ms := ms :: !hit_ms
      else miss_ms := ms :: !miss_ms)
    samples;
  (* Reference set: each connection's first 80 new specs (ids 0 .. 159). *)
  let reference = List.init 160 Fun.id in
  let ref_outcomes = List.filter_map (Hashtbl.find_opt by_id) reference in
  (* A seeded sample of those, re-run directly. *)
  let pick = Random.State.make [| seed; 0xd1ec7 |] in
  let sampled = List.filter (fun _ -> Random.State.int pick 10 = 0) reference in
  List.iter
    (fun id ->
      match Hashtbl.find_opt by_id id with
      | None -> ()
      | Some o ->
        let spec = spec_of ~seed id in
        Report.op rep
          (Checks.direct_match o spec (S.run (Checks.as_service_runs spec))))
    sampled;
  let stats =
    match Checks.stats_reply (P.call_once ~socket:c.socket P.Stats) with
    | Ok s -> Report.op rep None; Some s
    | Error why -> Report.op rep (Some why); None
    | exception e -> Report.op rep (Some ("stats request: " ^ Printexc.to_string e)); None
  in
  let frame_rtt_us =
    if not trace then 0.0
    else begin
      let fd = P.connect c.socket in
      let rtts =
        Array.init 200 (fun _ ->
            let t0 = Spans.now_ns () in
            ignore (P.call fd (P.Submit []) : P.response);
            float_of_int (Spans.now_ns () - t0) /. 1e3)
      in
      Unix.close fd;
      Report.percentile rtts 50.0
    end
  in
  let client_mb = Report.peak_rss_mb None and daemon_mb = Report.peak_rss_mb (Some c.pid) in
  Printf.printf "peak rss: client %.1f MB, daemon %.1f MB\n" client_mb daemon_mb;
  let rss = client_mb +. daemon_mb in
  Report.op rep (stop c);
  let arr l = Array.of_list l in
  let n = List.length samples in
  Printf.printf
    "service_mix: %d submissions in %.2f s (%d cached-class, %d new-class)\n" n
    window_s (List.length !hit_ms) (List.length !miss_ms);
  if not trace then begin
    emit "sim_s_per_ref_s" "s/s" (sim_s_per_spec *. per_phase phase_fresh);
    emit "optimum_frac" "frac"
      (List.fold_left (fun a o -> a +. (o.P.tail_mbps /. o.P.opt_mbps)) 0.0 ref_outcomes
      /. float_of_int (List.length ref_outcomes));
    emit "op_p50_ref_ms" "ms" (Report.percentile (arr !all_ms) 50.0);
    emit "sim_op_p50_ref_ms" "ms" (Report.percentile (arr !miss_ms) 50.0);
    emit "ops_per_ref_s" "1/s" (per_phase phase_ops);
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MB" rss
  end
  else begin
    let hits = arr !hit_ms and misses = arr !miss_ms in
    emit "host.kernel_ms" "ms" (Calib.kernel_ms cal);
    emit "host.sim_s_per_wall_s" "s/s"
      (sim_s_per_spec *. float_of_int (Array.fold_left ( + ) 0 phase_fresh) /. window_s);
    emit "service.hit_p50_ref_ms" "ms" (Report.percentile hits 50.0);
    emit "service.hit_p99_ref_ms" "ms" (Report.percentile hits 99.0);
    emit "service.hit_samples" "count" (float_of_int (Array.length hits));
    emit "service.miss_p50_ref_ms" "ms" (Report.percentile misses 50.0);
    emit "service.miss_p90_ref_ms" "ms" (Report.percentile misses 90.0);
    emit "service.miss_samples" "count" (float_of_int (Array.length misses));
    emit "daemon.frame_rtt_us" "us" frame_rtt_us;
    Option.iter
      (fun (s : P.stats_reply) ->
        emit "daemon.shared" "count" (float_of_int s.P.s_shared);
        emit "daemon.rejected" "count" (float_of_int s.P.rejected))
      stats;
    (* Traced passes over connection 0's first [n] submissions. *)
    let n = 150 in
    let bare = layer_pass (Spans.create ~on:false ()) ~seed ~n in
    let sp = Spans.create () in
    let traced = layer_pass sp ~seed ~n in
    let handle_ns, handled = handle_pass sp ~seed ~n in
    (* Outcomes must equal the daemon's replies for the same hashes. *)
    List.iter (fun o -> Report.op rep (Checks.consistent table o)) traced.outcomes;
    List.iter (fun o -> Report.op rep (Checks.consistent table o)) bare.outcomes;
    List.iter
      (fun r ->
        Report.op rep
          (match Checks.single_outcome r with
          | Ok o -> Checks.consistent table o
          | Error why -> Some why))
      handled;
    let wall_ns = traced.wall_ns + handle_ns in
    let self l = float_of_int (Spans.self_ns sp l) in
    List.iter (fun l -> emit (Spans.name l ^ ".self_s") "s" (self l /. 1e9)) Spans.all;
    emit "core.canon_hash_us" "us" (Spans.mean_us sp "canon.hash");
    emit "events.parse_us" "us" (Spans.mean_us sp "request.parse");
    emit "serve.lookup_us" "us" (Spans.mean_us sp "store.lookup");
    emit "serve.trend_append_us" "us" (Spans.mean_us sp "trend.append");
    emit "serve.claim_us" "us" (Spans.mean_us sp "store.claim");
    emit "serve.insert_us" "us" (Spans.mean_us sp "store.insert");
    emit "daemon.codec_us" "us" (Spans.mean_us sp "codec");
    emit "daemon.handle_us.hit" "us" (Spans.mean_us sp "handle.hit");
    emit "daemon.handle_us.miss" "us" (Spans.mean_us sp "handle.miss");
    emit "pool.busy_frac" "frac" traced.busy_frac;
    emit "serve.hit_frac" "frac" (float_of_int traced.hits /. float_of_int n);
    emit "serve.store_records" "count" (float_of_int traced.records);
    emit "trace.overhead_frac" "frac"
      ((float_of_int traced.wall_ns /. float_of_int bare.wall_ns) -. 1.0);
    let bench_ns = Spans.self_ns sp Spans.Bench in
    emit "trace.unattributed_frac" "frac" (float_of_int bench_ns /. float_of_int wall_ns);
    Report.op rep (Checks.unattributed ~bench_ns ~wall_ns);
    Spans.write sp ~path:(Printf.sprintf "%s/spans-service_mix-%d.jsonl" Report.out_dir seed)
  end
