package serve

// MaxSuiteBytes exports the document bound to the external tests.
const MaxSuiteBytes = maxSuiteBytes
