type t = { first : int; last : int }

let make ~first ~last =
  if first < 1 || last < first then invalid_arg "Interval.make: need 1 <= first <= last";
  { first; last }

let singleton k = make ~first:k ~last:k
let first t = t.first
let last t = t.last
let length t = t.last - t.first + 1
let mem t k = t.first <= k && k <= t.last

let split_points t =
  List.init (t.last - t.first) (fun i -> t.first + i)

let split_at t c =
  if c < t.first || c >= t.last then invalid_arg "Interval.split_at: bad cut";
  ({ first = t.first; last = c }, { first = c + 1; last = t.last })

let split3_at t c1 c2 =
  if not (t.first <= c1 && c1 < c2 && c2 < t.last) then
    invalid_arg "Interval.split3_at: bad cuts";
  ( { first = t.first; last = c1 },
    { first = c1 + 1; last = c2 },
    { first = c2 + 1; last = t.last } )

let partition_of n = function
  | [] -> false
  | first_iv :: _ as ivs ->
    let rec check expected = function
      | [] -> expected = n + 1
      | iv :: rest -> iv.first = expected && check (iv.last + 1) rest
    in
    first_iv.first = 1 && check 1 ivs

let to_string t =
  if t.first = t.last then Printf.sprintf "[%d]" t.first
  else Printf.sprintf "[%d..%d]" t.first t.last
