(* Output checks.  Each rests on a guarantee the program documents or a
   test pins; each returns [None] when the output passes and a reason
   when it does not.  The self-test feeds every check a corrupted
   output and a clean one. *)

(* Per-path tail rates must lie in the LP feasible region of the
   spec's path set, at [Audit.check_lp]'s default tolerance: 5% of each
   capacity, at least 1 Mbps ([Netgraph.Constraints.violations]). *)
let lp_feasible (spec : Core.Scenario.spec) per_path_mbps =
  let sys = Core.Scenario.constraint_system spec in
  match
    Netgraph.Constraints.violations ~slack_frac:0.05 ~slack_abs:1e6 sys
      ~x:(Array.map (fun m -> m *. 1e6) per_path_mbps)
  with
  | [] -> None
  | v :: _ ->
    Some
      (Printf.sprintf "link %d carries %.2f Mbps over capacity %.2f Mbps"
         v.Netgraph.Constraints.link_id (v.load_bps /. 1e6)
         (v.cap_bps /. 1e6))

(* test_core pins CUBIC's tail above 82 Mbps for exactly this cell:
   default path 2, seed 1, 8 s.  Random-seed 4 s cells are not pinned
   (some seeds settle near 60 Mbps), so the floor is checked on this
   cell only. *)
let cubic_floor_mbps = 82.0

let pinned_cubic_spec () =
  let topo = Core.Paper_net.topology () in
  Core.Scenario.make ~topo ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
    ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.s 8)
    ~sampling:(Engine.Time.ms 100) ~seed:1 ()

let cubic_floor tail_mbps =
  if tail_mbps > cubic_floor_mbps then None
  else
    Some
      (Printf.sprintf "pinned CUBIC cell tail %.2f Mbps is not above %.0f"
         tail_mbps cubic_floor_mbps)

(* Runs with equal specs are bit-for-bit identical (Scenario.run). *)
type fingerprint = { events : int; packets : int; delivered : int }

let fingerprint (r : Core.Scenario.result) =
  { events = r.Core.Scenario.events_processed;
    packets = r.Core.Scenario.packets_created;
    delivered = r.Core.Scenario.delivered_bytes }

let same_run ~what a b =
  if a = b then None
  else
    Some
      (Printf.sprintf
         "%s: events %d/%d, packets %d/%d, delivered bytes %d/%d differ" what
         a.events b.events a.packets b.packets a.delivered b.delivered)

(* A fluid background field cannot deliver more than it offers. *)
let background_within_offered (s : Fluid.Background.Driver.summary) =
  let open Fluid.Background.Driver in
  if s.goodput_mbps <= s.offered_mbps *. (1.0 +. 1e-9) then None
  else
    Some
      (Printf.sprintf "background goodput %.4f Mbps exceeds offered %.4f Mbps"
         s.goodput_mbps s.offered_mbps)

(* A one-entry submission must come back as a batch with one outcome;
   a busy, draining, failed or malformed reply is a failed operation. *)
let single_outcome (resp : Daemon.Protocol.response) =
  let open Daemon.Protocol in
  match resp with
  | Batch { outcomes = [ o ]; _ } -> Ok o
  | Batch b ->
    Error (Printf.sprintf "batch reply with %d outcomes" (List.length b.outcomes))
  | Error (kind, msg) ->
    Error (Printf.sprintf "%s reply: %s" (error_kind_name kind) msg)
  | _ -> Error "unexpected reply kind"

(* A reply answers the spec that was sent: its hash is the spec's
   canonical hash ([Core.Canon.hash]). *)
let reply_hash ~expected (o : Daemon.Protocol.outcome) =
  if o.Daemon.Protocol.hash = expected then None
  else
    Some
      (Printf.sprintf "reply carries hash %s for a spec whose hash is %s"
         (Core.Canon.short o.hash) (Core.Canon.short expected))

(* A stats request is answered with the daemon's counters. *)
let stats_reply (resp : Daemon.Protocol.response) =
  match resp with
  | Daemon.Protocol.Stats_reply s -> Ok s
  | _ -> Error "stats request answered with another reply"

(* A drain request is answered Drained, and the daemon then exits 0
   (Daemon.serve returns only after a completed drain). *)
let drained (reply : (Daemon.Protocol.response, string) result) status =
  match (reply, status) with
  | Ok Daemon.Protocol.Drained, Unix.WEXITED 0 -> None
  | Ok Daemon.Protocol.Drained, _ -> Some "daemon did not exit 0 after drain"
  | Ok _, _ -> Some "drain answered with another reply"
  | Error why, _ -> Some ("drain failed: " ^ why)

let bits = Int64.bits_of_float

(* Every reply for one hash carries bit-identical results, whether it
   was a Hit, Fresh or Shared (Store.same_results); the kind itself is
   timing and is never compared. *)
type seen = { tail : int64; opt : int64; sim_events : int }

let seen_of (o : Daemon.Protocol.outcome) =
  { tail = bits o.Daemon.Protocol.tail_mbps; opt = bits o.opt_mbps;
    sim_events = o.sim_events }

let consistent table (o : Daemon.Protocol.outcome) =
  let s = seen_of o in
  match Hashtbl.find_opt table o.Daemon.Protocol.hash with
  | None -> Hashtbl.add table o.hash s; None
  | Some s0 when s0 = s -> None
  | Some s0 ->
    Some
      (Printf.sprintf
         "hash %s: %s reply (tail %h, opt %h, %d events) differs from an \
          earlier reply (tail %h, opt %h, %d events)"
         (Core.Canon.short o.hash)
         (Daemon.Protocol.outcome_kind_name o.kind)
         o.tail_mbps o.opt_mbps o.sim_events (Int64.float_of_bits s0.tail)
         (Int64.float_of_bits s0.opt) s0.sim_events)

(* The service runs a miss with the metrics layer attached
   (Serve.Service: observation never perturbs results), so a direct
   re-run reproduces the record's event count only with the same
   attachment. *)
let as_service_runs (spec : Core.Scenario.spec) =
  { spec with
    Core.Scenario.obs =
      Some { Obs.Collect.default_conf with Obs.Collect.trace = false } }

let direct_match (o : Daemon.Protocol.outcome) (spec : Core.Scenario.spec)
    (r : Core.Scenario.result) =
  let hash = Core.Canon.hash spec in
  let tail = Core.Scenario.tail_mean_mbps r
  and opt = Core.Scenario.optimal_total_mbps r in
  if hash <> o.Daemon.Protocol.hash then
    Some (Printf.sprintf "reply hash %s is not the spec's %s" o.hash hash)
  else if
    bits tail <> bits o.tail_mbps || bits opt <> bits o.opt_mbps
    || r.Core.Scenario.events_processed <> o.sim_events
  then
    Some
      (Printf.sprintf
         "hash %s: reply (tail %h, opt %h, %d events) differs from a direct \
          run (tail %h, opt %h, %d events)"
         (Core.Canon.short hash) o.tail_mbps o.opt_mbps o.sim_events tail opt
         r.Core.Scenario.events_processed)
  else None

(* The traced layers must account for the traced wall: the part no
   layer claims (the benchmark's own glue, {!Spans.Bench}) stays within
   10% of it. *)
let unattributed ~bench_ns ~wall_ns =
  let frac = float_of_int bench_ns /. float_of_int (max 1 wall_ns) in
  if frac <= 0.10 then None
  else
    Some
      (Printf.sprintf "%.3f of the traced wall is attributed to no layer" frac)
