(* Operation accounting, latency percentiles, peak memory and the
   result line. *)

(* Scratch space inside the checkout: daemon sockets, temporary stores,
   span dumps.  Ignored by git and by dune (leading underscore). *)
let out_dir = "perfbench/_out"

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** most recent first *)
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let create () = { attempted = 0; failed = 0; failures = []; metrics = [] }

(* One checked operation: [check] is [None] when its output passed. *)
let op t check =
  t.attempted <- t.attempted + 1;
  match check with
  | None -> ()
  | Some why ->
    t.failed <- t.failed + 1;
    t.failures <- why :: t.failures

let ops t checks = List.iter (op t) checks

let metric t name unit value = t.metrics <- (name, value, unit) :: t.metrics

(* Linear-interpolation percentile (Measure.Stats); a failed operation
   enters as infinity, so it misses every latency limit. *)
let percentile samples p =
  if samples = [||] then nan else Measure.Stats.percentile samples ~p

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l -> List.nth l (List.length l / 2)

(* VmHWM of a process, in MB (0 when it cannot be read). *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Human-readable lines first, then the result line: one JSON object,
   the last line of standard output. *)
let print t =
  let metrics = List.rev t.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %16.6g %s\n" name v unit)
    metrics;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev t.failures);
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.printf "FAILED: metric %s is not finite\n" n) bad;
  let failed = t.failed + List.length bad in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 t.attempted) failed body
