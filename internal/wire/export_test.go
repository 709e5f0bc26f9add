package wire

import "encoding/json"

// NumberPaths counts how the values of a JSON ingest body convert:
// "null", "exact" (Clinger's fast path), "eisel-lemire" and "strconv".
func NumberPaths(body []byte) (map[string]int, error) {
	var req refRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	paths := map[string]int{}
	var d decimal
	for _, r := range req.Records {
		for _, v := range r.Values {
			if v == nil {
				paths["null"]++
				continue
			}
			scanNumber([]byte(v.String()), &d)
			paths[numberPath(&d)]++
		}
	}
	return paths, nil
}
