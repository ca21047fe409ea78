package spec

// CountJobs gives the external tests the decoder's count of the rest of
// a jobs array, from the element that begins at data[at].
func CountJobs(data []byte, at int) int {
	d := decoder{data: data, pos: at}
	return d.countJobs()
}
